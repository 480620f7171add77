package tuning

// MinBatch reports the batch knob's immutable lower bound.
func (l *Live) MinBatch() int { return l.minBatch }
