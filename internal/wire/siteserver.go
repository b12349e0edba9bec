package wire

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// SiteServerConfig parameterises a site daemon's participant-plane
// server.
type SiteServerConfig struct {
	// Addr is the TCP listen address ("127.0.0.1:0" picks a port).
	Addr string
	// Sites maps global site ids to their local backends; one daemon
	// can serve several sites on one listener.
	Sites map[uint16]dist.SiteBackend
	// Workload optionally names a workload spec (workload.ParseSpec);
	// its object factory is installed on every site at startup, so the
	// daemon can resolve Register calls that carry only an object id.
	Workload string
	// OnShutdown runs when a kShutdown request arrives (the daemon's
	// exit hook). Nil ignores the request.
	OnShutdown func()
	// Spans, when set, records this daemon's side of every traced
	// conversation: requests arriving with a sampled trace context in
	// their frame emit spans here, which is the daemon's half of the
	// cluster-wide trace sccctl stitches.
	Spans *telemetry.SpanBuffer
	// Flight, when set, is the daemon's flight recorder over Spans,
	// dumped if a site worker panics.
	Flight *telemetry.FlightRecorder
}

// servedSite is one site behind the server. A single worker goroutine
// executes its requests in arrival order — the wire's per-site FIFO —
// so the backend sees the same serialised call pattern dist's site
// mutex would produce in process, and the tracked-transaction map
// needs no lock.
type servedSite struct {
	sid     uint16
	backend dist.SiteBackend
	factory func(core.ObjectID) (adt.Type, compat.Classifier)
	// work is the site's FIFO. One read loop feeds every site on a
	// connection, so a full queue at a busy site stalls requests to the
	// others behind it; 256 keeps that rare under pipelining. The
	// queue's order, not its size, is what reproduces the site mutex.
	work chan request
	// owner is the seq of the newest connection that adopted the site
	// (sent kAdopt); 0 until one does. See siteWorker's fence.
	owner   uint64
	txns    map[core.TxnID]struct{}
	ids     []core.TxnID // liveIDs' scratch
	scratch []depgraph.Edge
	eff     core.Effects
}

// SiteServer serves sites' participant plane on one listener.
type SiteServer struct {
	server
	cfg   SiteServerConfig
	sites map[uint16]*servedSite
}

// ServeSites starts a site server: it listens, installs the configured
// workload factory, and accepts connections in the background.
func ServeSites(cfg SiteServerConfig) (*SiteServer, error) {
	var factory func(core.ObjectID) (adt.Type, compat.Classifier)
	if cfg.Workload != "" {
		gen, err := workload.ParseSpec(cfg.Workload)
		if err != nil {
			return nil, err
		}
		factory = gen.Factory()
	}
	s := &SiteServer{cfg: cfg, sites: make(map[uint16]*servedSite, len(cfg.Sites))}
	for sid, b := range cfg.Sites {
		s.sites[sid] = &servedSite{
			sid:     sid,
			backend: b,
			factory: factory,
			work:    make(chan request, 256),
			txns:    make(map[core.TxnID]struct{}),
		}
		if factory != nil {
			b.SetFactory(factory)
		}
	}
	if err := s.start(cfg.Addr, s.dispatch, nil); err != nil {
		return nil, err
	}
	for _, ss := range s.sites {
		go s.siteWorker(ss)
	}
	return s, nil
}

// dispatch routes one participant-plane request. kShutdown is
// daemon-level and answered inline; every other request names its
// site in the payload's leading u16 and joins that site's FIFO, so
// requests to one site execute in the order they arrived.
func (s *SiteServer) dispatch(rq request) {
	if rq.kind == kShutdown {
		rq.c.send(rq.corr, kOK, nil)
		if s.cfg.OnShutdown != nil {
			go s.cfg.OnShutdown()
		}
		return
	}
	if len(rq.body) < 2 {
		rq.c.send(rq.corr, kErr, appendErrResp(nil, fmt.Errorf("short payload")))
		return
	}
	sid := uint16(rq.body[0]) | uint16(rq.body[1])<<8
	ss := s.sites[sid]
	if ss == nil {
		rq.c.send(rq.corr, kErr, appendErrResp(nil, fmt.Errorf("unknown site %d", sid)))
		return
	}
	rq.body = append([]byte(nil), rq.body[2:]...)
	select {
	case ss.work <- rq:
	case <-s.done:
	}
}

// fenced marks the verbs only the site's owner and newer connections
// may run: everything that changes a transaction, and the adoption
// itself. Ping, stats, state and txn-state stay open to every
// connection.
var fenced = [256]bool{
	kRequest: true, kCommit: true, kCommitHold: true, kRelease: true, kAbort: true,
	kWithdraw: true, kRevoke: true, kForget: true, kAdopt: true,
}

// siteWorker executes one site's requests sequentially. It fences the
// site's transactions to its newest coordinator connection: once a
// connection adopted the site, a fenced verb from an older one — a
// frame of a dropped connection still queued behind the redial's
// adoption — is refused as site-down and never runs, because the
// adoption's snapshot already settled what that connection had done.
// Newer connections are served (probes and coordinators that never
// adopt), and a newer adoption takes the site over.
func (s *SiteServer) siteWorker(ss *servedSite) {
	defer dumpOnPanic(s.cfg.Flight)
	for {
		select {
		case rq := <-ss.work:
			if fenced[rq.kind] && rq.c.seq < ss.owner {
				kind, payload := errReply(fmt.Errorf("wire: site %d is adopted by a newer connection: %w", ss.sid, fault.ErrSiteDown))
				rq.c.send(rq.corr, kind, payload)
				continue
			}
			if rq.kind == kAdopt {
				ss.owner = rq.c.seq
			}
			kind, payload := s.handle(ss, rq.kind, rq.tc, rq.body)
			rq.c.send(rq.corr, kind, payload)
		case <-s.done:
			return
		}
	}
}

// liveIDs lists the tracked transactions in ascending id order, so an
// answer's bytes do not depend on map iteration order. The slice is
// the site's scratch, valid until the next call.
func (ss *servedSite) liveIDs() []core.TxnID {
	ss.ids = ss.ids[:0]
	for id := range ss.txns {
		ss.ids = append(ss.ids, id)
	}
	slices.Sort(ss.ids)
	return ss.ids
}

// report appends the site's full live edge report: every tracked
// transaction, ascending, with its current out-edges.
// Terminated-but-unforgotten transactions export empty sets, which is
// exactly what the caller's cache must learn (their edges drained).
func (ss *servedSite) report(b []byte) []byte {
	b = appendU32(b, uint32(len(ss.txns)))
	for _, id := range ss.liveIDs() {
		b = appendU64(b, uint64(id))
		ss.scratch = ss.backend.OutEdgesAppend(id, ss.scratch[:0])
		b = appendEdges(b, ss.scratch)
	}
	return b
}

// begin registers a transaction at the site, in the same FIFO turn as
// the first request that carried it. An id the site still holds is a
// duplicate, core.ErrDuplicateTxn: a restart reconcile forgets every
// transaction it settles, so an id a restarted coordinator mints again
// finds its previous holder gone unless that holder is live.
func (s *SiteServer) begin(ss *servedSite, id core.TxnID) error {
	if err := ss.backend.Begin(id); err != nil {
		return err
	}
	ss.txns[id] = struct{}{}
	return nil
}

// verbSpans, indexed by frame kind, is the daemon's half of the
// conversation: the span each participant verb records once it
// succeeded. A withdraw records none — it returns the transaction to
// active — and the begin riding a first request none either: the
// coordinator that minted the transaction recorded it.
var verbSpans = [256]telemetry.SpanKind{
	kRequest:    telemetry.SpanRequest, // SpanBlock when it parked
	kCommit:     telemetry.SpanRelease,
	kCommitHold: telemetry.SpanHold,
	kRelease:    telemetry.SpanRelease,
	kAbort:      telemetry.SpanAbort,
	kRevoke:     telemetry.SpanAbort,
}

// handle executes one request against the site backend (serve) and,
// under a sampled trace context, records the verb's span once it
// succeeded: its Dur is the call, its Object a request's object.
func (s *SiteServer) handle(ss *servedSite, kind uint8, tc telemetry.TraceContext, body []byte) (uint8, []byte) {
	sk := verbSpans[kind]
	if s.cfg.Spans == nil || !tc.Sampled() || sk == 0 {
		return s.serve(ss, kind, body)
	}
	start := time.Now()
	st, out := s.serve(ss, kind, body)
	if st == kOK {
		r := &reader{b: body}
		var id core.TxnID
		var obj core.ObjectID
		if kind == kRequest {
			id, _, obj, _ = r.request()
			if ss.backend.TxnState(id) == "blocked" {
				sk = telemetry.SpanBlock
			}
		} else {
			id = core.TxnID(r.u64()) // every other verb's body is its transaction first
		}
		s.cfg.Spans.Record(tc, sk, uint64(id), int32(ss.sid), int64(obj), 0, int64(time.Since(start)))
	}
	return st, out
}

// serve executes one request against the site backend and builds the
// response frame body.
func (s *SiteServer) serve(ss *servedSite, kind uint8, body []byte) (uint8, []byte) {
	r := &reader{b: body}
	switch kind {
	case kRequest:
		id, begin, obj, op := r.request()
		if r.err != nil {
			return errReply(r.err)
		}
		if begin {
			if err := s.begin(ss, id); err != nil {
				return errReply(err)
			}
		}
		dec, err := ss.backend.RequestInto(&ss.eff, id, obj, op)
		if err != nil {
			return errReply(err)
		}
		b := appendU8(nil, uint8(dec.Outcome))
		b = appendRet(b, dec.Ret)
		b = appendU8(b, uint8(dec.Reason))
		b = appendEffects(b, &ss.eff)
		return kOK, ss.report(b)

	case kCommit:
		id := core.TxnID(r.u64())
		if r.err != nil {
			return errReply(r.err)
		}
		st, err := ss.backend.CommitInto(&ss.eff, id)
		if err != nil {
			return errReply(err)
		}
		b := appendU8(nil, uint8(st))
		b = appendEffects(b, &ss.eff)
		return kOK, ss.report(b)

	case kCommitHold:
		id := core.TxnID(r.u64())
		if r.err != nil {
			return errReply(r.err)
		}
		deg, err := ss.backend.CommitHoldInto(&ss.eff, id)
		if err != nil {
			return errReply(err)
		}
		b := appendI64(nil, int64(deg))
		b = appendEffects(b, &ss.eff)
		return kOK, ss.report(b)

	case kRelease, kAbort, kWithdraw, kRevoke:
		id := core.TxnID(r.u64())
		var reason core.AbortReason
		if kind == kRevoke {
			reason = core.AbortReason(r.u8())
		}
		if r.err != nil {
			return errReply(r.err)
		}
		var err error
		switch kind {
		case kRelease:
			err = ss.backend.ReleaseInto(&ss.eff, id)
		case kAbort:
			err = ss.backend.AbortInto(&ss.eff, id)
		case kWithdraw:
			err = ss.backend.WithdrawInto(&ss.eff, id)
		case kRevoke:
			err = ss.backend.RevokeInto(&ss.eff, id, reason)
		}
		if err != nil {
			return errReply(err)
		}
		b := appendEffects(nil, &ss.eff)
		return kOK, ss.report(b)

	case kForget:
		id := core.TxnID(r.u64())
		if r.err == nil {
			ss.backend.Forget(id)
			delete(ss.txns, id)
		}
		return kOK, nil // one-way: never sent

	case kRegister:
		obj := core.ObjectID(r.u64())
		if r.err != nil {
			return errReply(r.err)
		}
		if ss.factory == nil {
			return errReply(fmt.Errorf("site %d has no workload factory", ss.sid))
		}
		typ, class := ss.factory(obj)
		if err := ss.backend.Register(obj, typ, class); err != nil {
			return errReply(err)
		}
		return kOK, nil

	case kStats:
		return kOK, appendStats(nil, ss.backend.StatsSnapshot())

	case kStateLen:
		return stateSummary(r, func(core.ObjectID) dist.SiteBackend { return ss.backend })

	case kTxnState:
		id := core.TxnID(r.u64())
		if r.err != nil {
			return errReply(r.err)
		}
		return kOK, appendStr(nil, ss.backend.TxnState(id))

	case kAdopt:
		// Report the site's live transactions, ascending, for log-driven
		// reconciliation: actives (and blocked) are orphans the caller
		// aborts, pseudo-committed-and-held ones are in doubt.
		var b []byte
		n := 0
		for _, id := range ss.liveIDs() {
			switch ss.backend.TxnState(id) {
			case "active", "blocked":
				b = appendU64(b, uint64(id))
				b = appendU8(b, adoptActive)
				n++
			case "pseudo-committed":
				b = appendU64(b, uint64(id))
				b = appendU8(b, adoptHeld)
				n++
			}
		}
		out := appendU32(nil, uint32(n))
		out = append(out, b...)
		return kOK, ss.report(out)

	case kPing:
		return kOK, nil
	}
	return errReply(fmt.Errorf("unknown request kind %#x", kind))
}
