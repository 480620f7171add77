package tuning

// MinBatch reports the batch knob's immutable lower bound.
func (l *Live) MinBatch() int { return l.minBatch }

// MinSchedulers reports the scheduler knob's immutable lower bound.
func (l *Live) MinSchedulers() int { return l.minScheds }
