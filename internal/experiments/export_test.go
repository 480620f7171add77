package experiments

import "fmt"

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
