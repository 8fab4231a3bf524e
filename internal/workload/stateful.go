// Stateful reference component for the §3.5 stable update protocol: the
// word counter's keyed cache implements worker.StatefulComponent, so a
// managed rescale can snapshot its state by key range and re-partition it
// onto a new instance set.
package workload

import "typhoon/internal/worker"

// SnapshotState implements worker.StatefulComponent: each word's count in
// the requested partition range, encoded as decimal text.
func (c *Counter) SnapshotState(_ *worker.Context, r worker.KeyRange) (map[string][]byte, error) {
	return worker.SnapshotCounts(c.counts, r), nil
}

// RestoreState implements worker.StatefulComponent with replace semantics:
// the cache becomes exactly the migrated entries.
func (c *Counter) RestoreState(_ *worker.Context, state map[string][]byte) error {
	counts, err := worker.RestoreCounts(state)
	if err != nil {
		return err
	}
	c.counts = counts
	return nil
}
