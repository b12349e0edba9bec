package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/debugz"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// fetchJSON GETs a debug-plane endpoint and decodes the JSON body.
func fetchJSON(addr, path string, v any) error {
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s%s: %s", addr, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// cmdStats pretty-prints cluster-wide telemetry scraped from every
// process's /statusz. Processes without a configured debug plane are
// reported and skipped.
func cmdStats(cf *wire.ClusterFile) {
	if cf.Debug == "" {
		fatal(fmt.Errorf("stats needs a coordinator debug address (\"debug\") in the cluster file"))
	}
	var st debugz.Statusz
	if err := fetchJSON(cf.Debug, "/statusz", &st); err != nil {
		fatal(err)
	}
	fmt.Printf("coordinator (%s): policy=%s\n", cf.Debug, st.Policy)
	if s := st.Stats; s != nil {
		fmt.Printf("  sched: executes=%d blocks=%d grants=%d withdrawals=%d commits=%d pseudo=%d aborts=%d (deadlock=%d cycle=%d)\n",
			s.Executes, s.Blocks, s.Grants, s.Withdrawals, s.Commits, s.PseudoCommits,
			s.Aborts, s.DeadlockAborts, s.CycleAborts)
	}
	fmt.Printf("  commit: fast=%d conversations=%d sheds=%d held=%d (peak %d)\n",
		st.FastCommits, st.Conversations, st.Sheds, st.Held, st.HeldHigh)
	fmt.Printf("  decisions: logged=%d adopted=%d resolved=%d live=%d\n",
		st.DecisionsLogged, st.DecisionsAdopted, st.DecisionsResolved, st.LiveDecisions)
	fmt.Printf("  faults: crashes=%d restarts=%d  mirror-edges=%d\n", st.Crashes, st.Restarts, st.MirrorEdges)
	if tr := st.Tracing; tr != nil {
		fmt.Printf("  spans: %d/%d retained, %d exemplars, sample rate %g\n", tr.SpanLen, tr.SpanCap, tr.Exemplars, tr.SampleRate)
	}
	if ps := st.PolicyStats; ps != nil {
		fmt.Printf("  policy: tail-aborts=%d held-peak=%d\n", ps.TailAborts, ps.HeldPeak)
	}
	if w := st.Wire; w != nil {
		fmt.Printf("  wire: out=%d frames/%d B in=%d frames/%d B reconnects=%d pipeline=%d (peak %d)\n",
			w.FramesOut, w.BytesOut, w.FramesIn, w.BytesIn, w.Reconnects, w.Pipeline, w.PipelineHigh)
	}
	printSiteStats(st.SiteStats)
	for i, d := range cf.Daemons {
		if d.Debug == "" {
			fmt.Printf("daemon %d (%s): no debug plane configured\n", i, d.Listen)
			continue
		}
		var ds debugz.Statusz
		if err := fetchJSON(d.Debug, "/statusz", &ds); err != nil {
			fmt.Printf("daemon %d (%s): %v\n", i, d.Debug, err)
			continue
		}
		fmt.Printf("daemon %d (%s):\n", i, d.Debug)
		printSiteStats(ds.SiteStats)
	}
}

func printSiteStats(m map[string]core.Stats) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := m[k]
		fmt.Printf("  site %s: executes=%d blocks=%d commits=%d pseudo=%d aborts=%d withdrawals=%d\n",
			k, s.Executes, s.Blocks, s.Commits, s.PseudoCommits, s.Aborts, s.Withdrawals)
	}
}

// cmdTrace reads the cluster's span plane. Without -txn/-slowest/-chrome
// it prints the coordinator's span ring oldest-first; those flags
// scrape /tracez from every process and stitch the records into
// cluster-wide traces by trace id.
func cmdTrace(cf *wire.ClusterFile, args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	last := fs.Int("last", 0, "print only the coordinator's last N spans (0 = all retained)")
	txn := fs.Uint64("txn", 0, "reconstruct one transaction's cluster-wide causal timeline")
	slowest := fs.Int("slowest", 0, "rank the N slowest traces still retained (tail exemplars survive wraparound)")
	chrome := fs.String("chrome", "", "write the merged cluster-wide spans as Chrome trace JSON to this file")
	fs.Parse(args)
	if cf.Debug == "" {
		fatal(fmt.Errorf("trace needs a coordinator debug address (\"debug\") in the cluster file"))
	}
	if *txn != 0 || *slowest > 0 || *chrome != "" {
		cmdTraceSpans(cf, *txn, *slowest, *chrome)
		return
	}
	var doc debugz.SpanzDoc
	if err := fetchJSON(cf.Debug, "/tracez", &doc); err != nil {
		fatal(err)
	}
	if len(doc.Spans) == 0 {
		fmt.Println("sccctl: span ring is empty (is \"spans\" set in the cluster file?)")
		return
	}
	spans := make([]procSpan, len(doc.Spans))
	for i, s := range doc.Spans {
		spans[i] = procSpan{proc: doc.Process, s: s}
	}
	byWall(spans)
	if *last > 0 && len(spans) > *last {
		spans = spans[len(spans)-*last:]
	}
	printSpans(spans)
}

// procSpan is one span record tagged with the process it came from.
type procSpan struct {
	proc string
	s    telemetry.Span
}

// gatherSpans scrapes every process's span feed. Processes without a
// debug plane (or unreachable ones — a killed coordinator, say) are
// reported and skipped; stitching works from whatever survives.
func gatherSpans(cf *wire.ClusterFile) ([]telemetry.SpanGroup, []procSpan) {
	type target struct{ name, addr string }
	targets := []target{{"coord", cf.Debug}}
	for i, d := range cf.Daemons {
		targets = append(targets, target{fmt.Sprintf("site%d", i), d.Debug})
	}
	var groups []telemetry.SpanGroup
	var all []procSpan
	for _, t := range targets {
		if t.addr == "" {
			fmt.Fprintf(os.Stderr, "sccctl: %s: no debug plane configured, skipping\n", t.name)
			continue
		}
		var doc debugz.SpanzDoc
		if err := fetchJSON(t.addr, "/tracez", &doc); err != nil {
			fmt.Fprintf(os.Stderr, "sccctl: %s (%s): %v, skipping\n", t.name, t.addr, err)
			continue
		}
		if doc.Process == "" {
			doc.Process = t.name
		}
		groups = append(groups, telemetry.SpanGroup{Process: doc.Process, Spans: doc.Spans})
		for _, s := range doc.Spans {
			all = append(all, procSpan{proc: doc.Process, s: s})
		}
	}
	return groups, all
}

// cmdTraceSpans is the span-plane side of cmdTrace.
func cmdTraceSpans(cf *wire.ClusterFile, txn uint64, slowest int, chrome string) {
	groups, all := gatherSpans(cf)
	if len(all) == 0 {
		fmt.Println("sccctl: no spans retained anywhere (is \"spans\" set in the cluster file?)")
		return
	}
	if chrome != "" {
		f, err := os.Create(chrome)
		if err != nil {
			fatal(err)
		}
		if err := telemetry.WriteChromeTraceGroups(f, groups); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		n := 0
		for _, g := range groups {
			n += len(g.Spans)
		}
		fmt.Printf("sccctl: wrote %d spans from %d process(es) to %s (open in chrome://tracing)\n",
			n, len(groups), chrome)
	}
	if txn != 0 {
		printTxnTimeline(all, txn)
	}
	if slowest > 0 {
		printSlowest(all, slowest)
	}
}

// printTxnTimeline reconstructs one transaction's causal timeline: the
// trace id is resolved from any process's spans for the transaction,
// then every span of that trace — across all processes — is ordered on
// the shared wall-clock axis.
func printTxnTimeline(all []procSpan, txn uint64) {
	var trace uint64
	for _, ps := range all {
		if ps.s.Txn == txn && ps.s.Trace != 0 {
			trace = ps.s.Trace
			break
		}
	}
	if trace == 0 {
		fmt.Printf("sccctl: no spans for txn %d (unsampled, or already overwritten in every ring)\n", txn)
		return
	}
	var spans []procSpan
	for _, ps := range all {
		if ps.s.Trace == trace {
			spans = append(spans, ps)
		}
	}
	byWall(spans)
	fmt.Printf("trace %016x (txn %d): %d span(s) across the cluster\n", trace, txn, len(spans))
	printSpans(spans)
}

// byWall orders spans on the shared wall-clock axis.
func byWall(spans []procSpan) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].s.Wall != spans[j].s.Wall {
			return spans[i].s.Wall < spans[j].s.Wall
		}
		return spans[i].s.ID < spans[j].s.ID
	})
}

// printSpans prints one line per span, stamped relative to the first —
// the line printer of trace -txn and trace -last.
func printSpans(spans []procSpan) {
	t0 := spans[0].s.Wall
	for _, ps := range spans {
		s := ps.s
		kind := s.KindS
		if kind == "" {
			kind = s.Kind.String()
		}
		line := fmt.Sprintf("%+12.3fms  %-8s %-8s txn=%-6d site=%-3d", float64(s.Wall-t0)/1e6, ps.proc, kind, s.Txn, s.Site)
		if s.Object != 0 {
			line += fmt.Sprintf(" obj=%d", s.Object)
		}
		if s.Wave != 0 {
			line += fmt.Sprintf(" wave=%d", s.Wave)
		}
		if s.Dur > 0 {
			line += fmt.Sprintf(" dur=%.3fms", float64(s.Dur)/1e6)
		}
		fmt.Println(line)
	}
}

// printSlowest ranks retained traces by observed wall span (first span
// start to last span end) and prints the top n.
func printSlowest(all []procSpan, n int) {
	type agg struct {
		trace      uint64
		txn        uint64
		start, end int64
		spans      int
	}
	byTrace := make(map[uint64]*agg)
	for _, ps := range all {
		s := ps.s
		if s.Trace == 0 {
			continue
		}
		a := byTrace[s.Trace]
		if a == nil {
			a = &agg{trace: s.Trace, txn: s.Txn, start: s.Wall, end: s.Wall}
			byTrace[s.Trace] = a
		}
		if s.Wall < a.start {
			a.start = s.Wall
		}
		if end := s.Wall + s.Dur; end > a.end {
			a.end = end
		}
		a.spans++
	}
	ranked := make([]*agg, 0, len(byTrace))
	for _, a := range byTrace {
		ranked = append(ranked, a)
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].end-ranked[i].start > ranked[j].end-ranked[j].start })
	if n > len(ranked) {
		n = len(ranked)
	}
	fmt.Printf("slowest %d of %d retained trace(s):\n", n, len(ranked))
	for _, a := range ranked[:n] {
		fmt.Printf("  trace %016x txn=%-6d span=%9.3fms spans=%d\n",
			a.trace, a.txn, float64(a.end-a.start)/1e6, a.spans)
	}
}
