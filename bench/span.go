package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/adt"
	"repro/internal/core"
)

// Span names. A logical transaction is one txn span; each try is an
// attempt under it, whose children are the store calls and the yield
// after every operation (the time the other clients had the
// processor); the sleep between tries is a backoff span beside the
// attempts. hold_wait runs from Commit's return to the real commit, so
// it starts where its txn ends and covers none of it.
type spanName uint8

const (
	spTxn spanName = iota
	spAttempt
	spBackoff
	spYield
	spBegin
	spDo
	spCommit
	spHoldWait
	numSpanNames
)

var spanNames = [numSpanNames]string{"txn", "attempt", "backoff", "yield", "begin", "do", "commit", "hold_wait"}

func (n spanName) String() string { return spanNames[n] }

// span is one recorded call: times are nanoseconds since the run
// began. Spans of one logical transaction share Txn; Parent is the ID
// of the span that caused this one (0 for a txn span).
type span struct {
	ID     uint64
	Txn    uint64
	Parent uint64
	Name   spanName
	Start  int64
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is a span's duration minus the part of its interval that
// its children cover: children are clipped to the parent and
// overlapping children are counted once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		if v.lo < end {
			v.lo = end
		}
		covered += v.hi - v.lo
		end = v.hi
	}
	return parent.dur() - covered
}

// sampleOneIn is the span-tree sampling rate: every call feeds the
// per-name histograms, one logical transaction in this many keeps its
// whole tree for the trace file.
const sampleOneIn = 64

// recorder collects one client's spans. The client goroutine opens and
// closes spans strictly nested, so a stack suffices and a span's self
// time is its duration minus its direct children's. hold_wait spans
// outlive their txn span, so they are added whole by holdWait.
type recorder struct {
	epoch time.Time
	on    bool // current logical transaction is inside the window
	keep  bool // ... and its tree is sampled

	durs   [numSpanNames]hist
	selfNs [numSpanNames]int64
	txnNs  int64 // total duration of recorded txn spans

	stack  []openSpan
	nextID uint64
	txn    uint64
	kept   []span
}

type openSpan struct {
	id      uint64
	name    spanName
	start   time.Time
	childNs int64
}

func newRecorder(epoch time.Time, client int) *recorder {
	// Span ids are unique across clients: the client index is the top
	// byte.
	return &recorder{epoch: epoch, nextID: uint64(client+1) << 56}
}

// startTxn arms the recorder for one logical transaction and opens its
// txn span. on is whether the transaction counts (begins inside the
// window); keep whether its tree is sampled.
func (r *recorder) startTxn(on, keep bool) {
	r.on, r.keep = on, on && keep
	r.open(spTxn)
	if r.on {
		r.txn = r.stack[0].id
	}
}

func (r *recorder) open(name spanName) {
	if !r.on {
		return
	}
	r.nextID++
	r.stack = append(r.stack, openSpan{id: r.nextID, name: name, start: time.Now()})
}

func (r *recorder) close() {
	if !r.on {
		return
	}
	end := time.Now()
	top := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	d := int64(end.Sub(top.start))
	r.durs[top.name].add(d)
	r.selfNs[top.name] += d - top.childNs
	var parent uint64
	if n := len(r.stack); n > 0 {
		r.stack[n-1].childNs += d
		parent = r.stack[n-1].id
	} else {
		r.txnNs += d
	}
	if r.keep {
		r.kept = append(r.kept, span{
			ID: top.id, Txn: r.txn, Parent: parent, Name: top.name,
			Start: int64(top.start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
		})
	}
}

// holdWait records a promise's wait, from Commit's return to the look
// that found its real commit landed. txn is the promise's txn span.
func (r *recorder) holdWait(txn uint64, keep bool, from, to time.Time) {
	r.durs[spHoldWait].add(int64(to.Sub(from)))
	if keep {
		r.nextID++
		r.kept = append(r.kept, span{
			ID: r.nextID, Txn: txn, Parent: txn, Name: spHoldWait,
			Start: int64(from.Sub(r.epoch)), End: int64(to.Sub(r.epoch)),
		})
	}
}

// spanStore is the benchmark's wrapper around core.Store: Begin, Do
// and Commit of every transaction it hands out are recorded as spans.
// Each client wraps the shared store with its own recorder. The
// program under test is not touched — these are the calls into it,
// timed from outside.
type spanStore struct {
	core.Store
	rec *recorder
}

func (s spanStore) Begin() core.Txn {
	s.rec.open(spBegin)
	t := s.Store.Begin()
	s.rec.close()
	return &spanTxn{Txn: t, rec: s.rec}
}

type spanTxn struct {
	core.Txn
	rec *recorder
}

func (t *spanTxn) Do(obj core.ObjectID, op adt.Op) (adt.Ret, error) {
	t.rec.open(spDo)
	ret, err := t.Txn.Do(obj, op)
	t.rec.close()
	return ret, err
}

func (t *spanTxn) Commit() (core.CommitStatus, error) {
	t.rec.open(spCommit)
	st, err := t.Txn.Commit()
	t.rec.close()
	return st, err
}

// budget is the traced run's account of where client-observed
// transaction time went. Self times are sums over every recorded
// transaction (not only the sampled trees), as shares of the summed
// txn durations; they add up to 1 because each span's self time is its
// duration minus its children's.
type budget struct {
	durs      [numSpanNames]hist
	selfShare [numSpanNames]float64
	txnNs     int64
	kept      []span
}

func mergeRecorders(recs []*recorder) *budget {
	b := &budget{}
	var self [numSpanNames]int64
	for _, r := range recs {
		for n := range r.durs {
			b.durs[n].merge(&r.durs[n])
			self[n] += r.selfNs[n]
		}
		b.txnNs += r.txnNs
		b.kept = append(b.kept, r.kept...)
	}
	if b.txnNs > 0 {
		for n := range self {
			b.selfShare[n] = float64(self[n]) / float64(b.txnNs)
		}
	}
	return b
}

// checkTrees verifies the budget identity on the sampled trees instead
// of assuming it: for every kept span with children, the children's
// durations plus the parent's self time (computed by the interval
// union, so overlapping or escaping children would break the sum) must
// equal the parent's duration. It returns the number of txn trees
// checked.
func checkTrees(kept []span) (int, error) {
	children := make(map[uint64][]span)
	for _, s := range kept {
		if s.Parent != 0 && s.Name != spHoldWait {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	trees := 0
	for _, s := range kept {
		if s.Name == spTxn {
			trees++
		}
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		var sum int64
		for _, k := range kids {
			sum += k.dur()
		}
		if self := selfTime(s, kids); sum+self != s.dur() {
			return trees, fmt.Errorf("span %d (%s, txn %d): children %d ns + self %d ns != duration %d ns",
				s.ID, s.Name, s.Txn, sum, self, s.dur())
		}
	}
	return trees, nil
}

// writeTrace writes the sampled span trees as JSON, one span per line
// inside the "spans" array.
func writeTrace(path, workload string, seed int64, kept []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"sample_one_in\":%d,\"time_unit\":\"ns since run start\",\"spans\":[", workload, seed, sampleOneIn)
	for i, s := range kept {
		sep := ","
		if i == 0 {
			sep = ""
		}
		fmt.Fprintf(w, "%s\n{\"id\":%d,\"txn\":%d,\"parent\":%d,\"name\":%q,\"start\":%d,\"end\":%d}",
			sep, s.ID, s.Txn, s.Parent, s.Name.String(), s.Start, s.End)
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}
