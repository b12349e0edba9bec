package dist

import "sync"

// pipeline coalesces concurrent commit conversations' decision rounds
// (flat combining): whichever owner goroutine finds the pipeline idle
// becomes the combiner and decides everything queued behind it in one
// Coordinator.DecideWave — one coordinator critical section with one
// grouped decision-log force — instead of each conversation taking the
// coordinator mutex and fsyncing its own decision. Under convoy load
// the mutex is acquired once per wave and the log forced once per
// wave; at low concurrency a wave is a single request and the path
// degenerates to the old one (same lock round, same force) with no
// added latency.
type pipeline struct {
	mu      sync.Mutex
	pending []*DecideReq
	// combining marks an active combiner; submitters that see it just
	// enqueue and wait, their request is part of someone's wave.
	combining bool
}

// decide runs one conversation's decision round through the pipeline;
// on return req carries its verdict. The caller's hold phase is
// complete: Batch/Counts are the per-site exports copied out under the
// site mutexes.
func (c *Cluster) decide(req *DecideReq) {
	req.done = make(chan struct{})
	p := &c.pipe
	p.mu.Lock()
	p.pending = append(p.pending, req)
	if p.combining {
		p.mu.Unlock()
		<-req.done
		return
	}
	p.combining = true
	for {
		wave := p.pending
		p.pending = nil
		p.mu.Unlock()
		c.DecideWave(wave)
		for _, r := range wave {
			close(r.done)
		}
		p.mu.Lock()
		if len(p.pending) == 0 {
			p.combining = false
			p.mu.Unlock()
			return
		}
	}
}
