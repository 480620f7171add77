package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/msgcodec"
)

// Fig6Row is one configuration of the prototype benchmark (Fig 6):
// producers/consumers/queues and the measured processing times and memory.
type Fig6Row struct {
	Producers int
	Consumers int
	Queues    int
	Tasks     int
	// Batch is the broker batch size used; 0 or 1 means the per-message
	// path (the paper's original configuration).
	Batch int

	ProducerTime  time.Duration // wall time until all tasks are published
	ConsumerTime  time.Duration // wall time until all tasks are consumed
	AggregateTime time.Duration // end-to-end wall time
	BaseMemMB     float64       // heap after component instantiation
	PeakMemMB     float64       // peak heap during the run

	// DecodeFailures counts consumer-side task objects that failed to
	// decode. The prototype publishes only well-formed frames, so any
	// non-zero value means the broker corrupted or truncated a message —
	// a correctness signal the original benchmark silently discarded.
	DecodeFailures int
}

// Fig6Prototype benchmarks the broker-centred core of EnTK with the paper's
// prototype topology: P producers push task objects into Q queues over the
// per-message broker path, C consumers pull and hand them to an empty RTS
// module. The paper's configurations are (1,1,1), (2,2,2), (4,4,4), (8,8,8)
// with 10⁶ tasks. The task object is msgcodec.Fig6Task, shaped like an EnTK
// task description and encoded with the control plane's one wire codec (the
// paper's prototype serialised it as JSON).
func Fig6Prototype(tasks int, configs []int) ([]Fig6Row, error) {
	return Fig6Grid(tasks, []int{1}, configs)
}

// Fig6Batched is the batched-broker variant of the prototype benchmark:
// identical producer/consumer/queue topology, but producers publish bodies
// through PublishBatch in chunks of batch, consumers drain through
// pull-mode ReceiveBatch with batch acknowledgements. Comparing a
// Fig6Batched row against the Fig6Prototype row of the same shape isolates
// the broker's batch API.
func Fig6Batched(tasks, batch int, configs []int) ([]Fig6Row, error) {
	if batch <= 1 {
		return nil, fmt.Errorf("experiments: batch must exceed 1 (got %d)", batch)
	}
	return Fig6Grid(tasks, []int{batch}, configs)
}

// Fig6Grid runs the BatchSize x consumer-count grid: for every batch size
// in batches (1 = the per-message path) and every even configuration n in
// configs (n producers, n consumers, n queues), one prototype run. It is
// the experiment behind the batched Fig 7/8-style overhead curves: sweeping
// both axes shows how broker amortization interacts with consumer
// parallelism on the sharded ready rings.
func Fig6Grid(tasks int, batches, configs []int) ([]Fig6Row, error) {
	if tasks <= 0 {
		return nil, fmt.Errorf("experiments: non-positive task count")
	}
	if len(batches) == 0 {
		batches = []int{1, 64, 1024}
	}
	if len(configs) == 0 {
		configs = []int{1, 2, 4, 8}
	}
	var rows []Fig6Row
	for _, batch := range batches {
		if batch < 1 {
			return nil, fmt.Errorf("experiments: non-positive batch size %d", batch)
		}
		for _, n := range configs {
			row, err := fig6Run(tasks, n, n, n, batch)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig6Uneven runs the uneven-distribution configurations the paper notes
// are less efficient than even ones, over the same per-message path and
// task-body encoder as Fig6Prototype.
func Fig6Uneven(tasks int) ([]Fig6Row, error) {
	shapes := [][3]int{{8, 1, 1}, {1, 8, 1}, {4, 8, 4}}
	var rows []Fig6Row
	for _, s := range shapes {
		row, err := fig6Run(tasks, s[0], s[1], s[2], 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// startPeakSampler samples the heap every 5ms; the returned stop function
// ends sampling and reports the peak observed, in MB.
func startPeakSampler(baseMB float64) (stop func() float64) {
	var peak atomic.Uint64
	peak.Store(uint64(baseMB * 1024))
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-tick.C:
				kb := uint64(heapMB() * 1024)
				for {
					cur := peak.Load()
					if kb <= cur || peak.CompareAndSwap(cur, kb) {
						break
					}
				}
			}
		}
	}()
	return func() float64 {
		close(stopCh)
		wg.Wait()
		return float64(peak.Load()) / 1024
	}
}

// fig6Run executes one prototype configuration. batch <= 1 selects the
// per-message broker API (the paper's original setup); batch > 1 moves
// the same task volume over the broker's batch API (PublishBatch in chunks
// of batch, pull-mode ReceiveBatch with batch acknowledgements).
func fig6Run(tasks, producers, consumers, queues, batch int) (Fig6Row, error) {
	b := broker.New(broker.Options{})
	defer b.Close()
	qnames := make([]string, queues)
	for i := range qnames {
		qnames[i] = fmt.Sprintf("q%02d", i)
		if err := b.DeclareQueue(qnames[i], broker.QueueOptions{}); err != nil {
			return Fig6Row{}, err
		}
	}

	row := Fig6Row{
		Producers: producers, Consumers: consumers, Queues: queues,
		Tasks: tasks,
	}
	if batch > 1 {
		row.Batch = batch
	}
	runtime.GC()
	row.BaseMemMB = heapMB()
	stopSampler := startPeakSampler(row.BaseMemMB)

	start := time.Now()
	var producerWG sync.WaitGroup
	perProducer := tasks / producers
	extra := tasks % producers
	for p := 0; p < producers; p++ {
		n := perProducer
		if p < extra {
			n++
		}
		producerWG.Add(1)
		go func(p, n int) {
			defer producerWG.Done()
			q := qnames[p%queues]
			var bodies [][]byte
			if batch > 1 {
				bodies = make([][]byte, 0, batch)
			}
			t := msgcodec.Fig6Task{
				Executable: "sleep",
				Arguments:  []string{"0"},
				Cores:      1,
			}
			for i := 0; i < n; i++ {
				t.UID = fmt.Sprintf("task.%06d.%06d", p, i)
				body := msgcodec.FormatBinary.EncodeFig6Task(&t)
				if batch <= 1 {
					b.Publish(q, body) //nolint:errcheck
					continue
				}
				bodies = append(bodies, body)
				if len(bodies) == batch {
					b.PublishBatch(q, bodies) //nolint:errcheck
					bodies = bodies[:0]
				}
			}
			b.PublishBatch(q, bodies) //nolint:errcheck
		}(p, n)
	}

	var consumed atomic.Int64
	var decodeFailures atomic.Int64
	allDone := make(chan struct{})
	var doneOnce sync.Once
	done := func(n int) {
		if consumed.Add(int64(n)) >= int64(tasks) {
			doneOnce.Do(func() { close(allDone) })
		}
	}
	var consumerWG sync.WaitGroup
	for c := 0; c < consumers; c++ {
		qname := qnames[c%queues]
		consumerWG.Add(1)
		if batch <= 1 {
			cons, err := b.Consume(qname, 512)
			if err != nil {
				return Fig6Row{}, err
			}
			go func(cons *broker.Consumer) {
				defer consumerWG.Done()
				for {
					select {
					case d, ok := <-cons.Deliveries():
						if !ok {
							return
						}
						// "Empty RTS module": decode and drop, counting
						// (rather than swallowing) decode failures.
						var t msgcodec.Fig6Task
						if err := msgcodec.DecodeFig6Task(d.Body, &t); err != nil {
							decodeFailures.Add(1)
						}
						d.Ack() //nolint:errcheck
						done(1)
					case <-allDone:
						return
					}
				}
			}(cons)
			continue
		}
		cons, err := b.ConsumeBatch(qname, 2*batch)
		if err != nil {
			return Fig6Row{}, err
		}
		go func(cons *broker.Consumer) {
			defer consumerWG.Done()
			for {
				ds, err := cons.ReceiveBatch(batch)
				if err != nil {
					return // broker closed: run over
				}
				// "Empty RTS module": decode and drop, counting (rather
				// than swallowing) decode failures.
				for _, d := range ds {
					var t msgcodec.Fig6Task
					if err := msgcodec.DecodeFig6Task(d.Body, &t); err != nil {
						decodeFailures.Add(1)
					}
				}
				broker.AckBatch(ds) //nolint:errcheck
				done(len(ds))
			}
		}(cons)
	}

	producerWG.Wait()
	row.ProducerTime = time.Since(start)
	<-allDone
	row.ConsumerTime = time.Since(start)
	row.AggregateTime = time.Since(start)
	b.Close()
	consumerWG.Wait()
	row.PeakMemMB = stopSampler()
	row.DecodeFailures = int(decodeFailures.Load())
	return row, nil
}
