package dist

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// regShards is the live-transaction registry's shard count (a power of
// two; ids hash by masking). 32 shards keep same-shard collisions rare
// at realistic in-flight counts while the whole array stays a few cache
// lines.
const regShards = 32

// regShard is one independently locked slice of the registry.
type regShard struct {
	mu   sync.Mutex
	txns map[core.TxnID]*Conv
	// pad spaces shards to their own cache lines so uncontended
	// registrations on neighbouring shards do not false-share.
	_ [48]byte
}

// registry is the cluster's live-transaction table, sharded by
// transaction id so Begin/finalise traffic from independent
// transactions never contends on one mutex — the first of the
// coordinator's split lock domains. It replaces the txns map that used
// to live under the global coordinator mutex.
//
// Beyond lookup, the registry is the synchronisation point for the
// edge-free finalisation fast path: filterLive marks a transaction as
// mirrored (an edge to it entered the union graph) inside the same
// shard critical section that proves it alive, and unregister reads
// that mark inside the shard critical section that removes the entry.
// Those two sections cannot interleave, so either the marker saw the
// transaction alive — and the finaliser sees the mark and removes the
// mirror node — or the finaliser got there first and the marker drops
// the edge. Without that pairing a stale edge could enter the mirror
// just as its target finalised without mirror cleanup, holding the
// edge's source pseudo-committed forever.
type registry struct {
	shards [regShards]regShard
	// live counts registered transactions, maintained outside the shard
	// locks; the draining close watches it reach zero.
	live atomic.Int64
}

func (r *registry) init() {
	for i := range r.shards {
		r.shards[i].txns = make(map[core.TxnID]*Conv)
	}
}

func (r *registry) shard(id core.TxnID) *regShard {
	return &r.shards[uint64(id)&(regShards-1)]
}

// add registers a live transaction.
func (r *registry) add(t *Conv) {
	sh := r.shard(t.id)
	sh.mu.Lock()
	sh.txns[t.id] = t
	sh.mu.Unlock()
	r.live.Add(1)
}

// get returns the live transaction, or nil. Safe to call with the
// coordinator mutex held (lock order coordinator -> shard).
func (r *registry) get(id core.TxnID) *Conv {
	sh := r.shard(id)
	sh.mu.Lock()
	t := sh.txns[id]
	sh.mu.Unlock()
	return t
}

// markMirror records, atomically with the aliveness check, that an
// edge to id is about to enter the union graph: the returned
// transaction (nil if id is no longer live) must then be removed from
// the mirror when it finalises. Callers hold the coordinator mutex, so
// the mark is published before the edge is observable and strictly
// before the target's RemoveTxn can run.
func (r *registry) markMirror(id core.TxnID) *Conv {
	sh := r.shard(id)
	sh.mu.Lock()
	t := sh.txns[id]
	if t != nil {
		t.inMirror.Store(true)
	}
	sh.mu.Unlock()
	return t
}

// unregister removes a finished transaction and reports whether it has
// union-graph state to clean up (it observed edges of its own, or
// filterLive marked an incoming edge). The mark is read inside the
// shard critical section — see registry's doc comment for why.
func (r *registry) unregister(id core.TxnID) (t *Conv, mirrored bool) {
	sh := r.shard(id)
	sh.mu.Lock()
	t = sh.txns[id]
	if t != nil {
		delete(sh.txns, id)
		mirrored = t.anyEdges.Load() || t.inMirror.Load()
	}
	sh.mu.Unlock()
	if t != nil {
		r.live.Add(-1)
	}
	return t, mirrored
}

// count returns the number of live transactions.
func (r *registry) count() int64 { return r.live.Load() }

// forEach visits every live transaction (shard by shard; the set may
// change between shards). For introspection and test dumps only.
func (r *registry) forEach(fn func(t *Conv)) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, t := range sh.txns {
			fn(t)
		}
		sh.mu.Unlock()
	}
}
