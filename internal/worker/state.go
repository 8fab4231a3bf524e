package worker

import (
	"fmt"
	"strconv"

	"typhoon/internal/tuple"
)

// The stable-update protocol of §3.5 migrates keyed worker state between
// instance sets when a stateful node is rescaled. The key space is carved
// into a fixed number of partitions; key-based (Fields) routing first maps
// a tuple to its partition and then assigns the partition to an instance
// with rendezvous hashing, so a parallelism change moves only the
// partitions whose owner actually changed — the "hashing ring" the
// controller's updater app reasons about when it asks old owners for
// snapshots and hands the entries to their new owners.

// NumPartitions is the fixed size of the key-partition space shared by the
// router, stateful components and the controller's updater app.
const NumPartitions = 64

// KeyRange selects the partitions [From, To) of the key space.
type KeyRange struct {
	From uint32 `json:"from"`
	To   uint32 `json:"to"`
}

// FullKeyRange covers every partition.
func FullKeyRange() KeyRange { return KeyRange{From: 0, To: NumPartitions} }

// Contains reports whether partition p falls in the range.
func (r KeyRange) Contains(p uint32) bool { return p >= r.From && p < r.To }

// StatefulComponent is computation logic whose keyed in-memory state can be
// migrated during a stable topology update. State is exposed as one opaque
// blob per routing key; the framework never interprets the blobs, only the
// keys (to decide ownership by partition).
type StatefulComponent interface {
	Component
	// SnapshotState returns the component's state entries whose key falls
	// in the partition range, keyed by the routing key. The component keeps
	// running afterwards; the updater pauses upstream before snapshotting.
	SnapshotState(ctx *Context, r KeyRange) (map[string][]byte, error)
	// RestoreState replaces the component's entire state with the given
	// entries (replace semantics: keys absent from state are dropped).
	RestoreState(ctx *Context, state map[string][]byte) error
}

// SnapshotCounts is the SnapshotState of a component whose whole state is
// one count per routing key: the entries whose key falls in r, each count
// encoded as decimal text.
func SnapshotCounts(counts map[string]int64, r KeyRange) map[string][]byte {
	out := make(map[string][]byte)
	for key, n := range counts {
		if r.Contains(PartitionOfKey(key)) {
			out[key] = []byte(strconv.FormatInt(n, 10))
		}
	}
	return out
}

// RestoreCounts decodes SnapshotCounts entries into a fresh count table;
// with replace semantics the caller's table becomes exactly the result.
func RestoreCounts(state map[string][]byte) (map[string]int64, error) {
	counts := make(map[string]int64, len(state))
	for key, blob := range state {
		n, err := strconv.ParseInt(string(blob), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("worker: bad count for %q: %w", key, err)
		}
		counts[key] = n
	}
	return counts, nil
}

// PartitionOf maps a routing hash to its key partition.
func PartitionOf(hash uint64) uint32 { return uint32(hash % NumPartitions) }

// PartitionOfKey maps a single string routing key to its partition. It is
// definitionally consistent with the router's Fields policy for an edge
// hashing one string field, so components and the updater agree with the
// data plane about which instance owns a key.
func PartitionOfKey(key string) uint32 {
	t := tuple.New(tuple.String(key))
	return PartitionOf(tuple.HashFields(t, []int{0}))
}

// OwnerIndex assigns a partition to an instance index among n instances
// using rendezvous (highest-random-weight) hashing: each (partition,
// instance) pair gets a deterministic score and the instance with the
// highest score wins. Changing n moves only the partitions whose winner
// changed — on average 1/n of them — which keeps state migration minimal
// compared to modulo placement, where almost every key moves.
func OwnerIndex(part uint32, n int) int {
	if n <= 1 {
		return 0
	}
	best, bestScore := 0, uint64(0)
	for i := 0; i < n; i++ {
		s := mix64(uint64(part)<<32 | uint64(i))
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// mix64 is a SplitMix64 finalizer: a cheap, well-distributed bijection used
// to score (partition, instance) pairs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
