package platform

import (
	"fmt"
	"path/filepath"
	"sort"
)

// ShardRouter maps market entities onto shards.  The key is the category:
// a task lives in exactly the shard that owns its category, and a worker is
// resident in every shard owning one of its specialties (its first
// specialty's shard is its home).  Because the benefit model only creates
// edges between a worker and tasks in its specialty categories, this
// placement puts every eligible (worker, task) edge in exactly one shard —
// per-shard solves see complete local markets, and only workers whose
// specialties span shards can be globally over-subscribed (the
// reconciliation pass's job).
//
// The mapping is a pure function of (category, Shards): routing tables can
// always be rebuilt from recovered shard states, and a shard-count change
// is detectable as residency that contradicts the router.
type ShardRouter struct {
	// Shards is the shard count (≥ 1).
	Shards int
}

// shardOfCategory spreads categories over shards with a splitmix64-style
// finalizer rather than bare modulo, so striped category numbering (common
// in generators) cannot alias all load onto few shards.
func shardOfCategory(category, shards int) int {
	x := uint64(category)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// TaskShard returns the shard owning a task category.
func (r ShardRouter) TaskShard(category int) int {
	return shardOfCategory(category, r.Shards)
}

// WorkerShards returns the sorted, deduplicated shard set a worker with the
// given specialties is resident in.  The result is never empty for a valid
// profile (validateWorkerProfile requires at least one specialty).
func (r ShardRouter) WorkerShards(specialties []int) []int {
	out := make([]int, 0, len(specialties))
	for _, sp := range specialties {
		k := shardOfCategory(sp, r.Shards)
		dup := false
		for _, kk := range out {
			if kk == k {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

// ShardDir returns the per-shard journal/snapshot directory under the root
// of a market with more than one shard: <dir>/shard-0003.  Each shard's
// SegmentedLog, snapshots and CheckpointManager all live in its own
// subdirectory, so single-shard recovery (RecoverDir on one subdirectory)
// never reads another shard's files.  A one-shard market keeps them in the
// root itself, the single-market layout RecoverDir reads.
func ShardDir(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d", shard))
}

// RecoverShardedDir recovers all shards of a multi-shard directory layout: shard k is recovered independently from ShardDir(dir, k) via
// RecoverDir (newest valid snapshot plus the journal tail).  Missing
// subdirectories recover as empty shards, so a fresh directory boots a
// fresh service.
func RecoverShardedDir(dir string, numCategories, shards int) ([]*State, []*RecoveryInfo, error) {
	if shards < 1 {
		return nil, nil, fmt.Errorf("platform: shard count %d < 1", shards)
	}
	states := make([]*State, shards)
	infos := make([]*RecoveryInfo, shards)
	for k := 0; k < shards; k++ {
		st, info, err := RecoverDir(ShardDir(dir, k), numCategories)
		if err != nil {
			return nil, nil, fmt.Errorf("platform: recovering shard %d: %w", k, err)
		}
		states[k] = st
		infos[k] = info
	}
	return states, infos, nil
}
