package repro_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// retiredNames lists the names simplification PRs deleted, so that a
// second copy cannot grow back unnoticed. Each row is a line pattern
// (RE2, written as the grep -E it replaces), the non-test Go files it
// covers and how many lines may match there (0: the name is gone).
// A scope entry "dir" covers dir/*.go, "dir/..." the whole tree.
var retiredNames = []struct {
	pr      int
	name    string
	pattern string
	scope   []string
	except  string // one file the scope leaves out
	want    int
	example string // a line the pattern must match, so the row cannot go vacuous
	why     string
}{
	// PR 16 extended this row's pattern past holdK.
	{15, "one-coordinator", `NewMirror|relAcks|filterLive|finalizeEager|holdK|relK|sendHold|sendRelease|shedHold|e\.eager`,
		[]string{"internal/distsim"}, "", 0,
		`	e.relAcks[id] = sites`,
		"internal/distsim re-implements coordinator state or sequencing; use dist.Coordinator"},
	{27, "one-hold-policy", `EagerRelease|Admission\{|EagerSubtree|eagerQueue|ShedAdmission|EagerRounds|AdmissionRejects`,
		[]string{"internal/...", "cmd/..."}, "", 0,
		`	policy := dist.EagerRelease{}`,
		"a retired hold policy is back; a policy is a depth bound or nothing"},
	{28, "one-dependency-graph", `type Mirror struct|graphKeeper|RemoveOutEdges|AddNode\(|pairCnt|siteIndex`,
		[]string{"internal/..."}, "", 0,
		`type Mirror struct {`,
		"the dependency graph exists once"},
	{29, "one-event-ring", `NewTracer|telemetry\.Tracer|EventKind|EvHold|EvRelease|EvCrash|\.Tracer\(\)|TraceLen`,
		[]string{"internal/...", "cmd/..."}, "", 0,
		`	tr := telemetry.NewTracer(1024)`,
		"the event ring exists once: record a span"},
	{30, "one-server-loop", `ServeCoord|CoordConfig\b|cliConn|serverConn|wreq|wire\.(ServeDebug|DebugConfig|Statusz|SpanzDoc)|OutEdgesOf`,
		[]string{"internal/...", "cmd/..."}, "", 0,
		`func ServeCoord(ln net.Listener, cfg CoordConfig) error {`,
		"a second server loop or a retired name is back; dispatch over wire's server"},
	{30, "one-accept", `Accept\(\)`,
		[]string{"internal/wire"}, "", 1,
		`		conn, err := ln.Accept()`,
		"internal/wire must have exactly one Accept() call, the one server loop's"},
	{30, "no-net-http", `"net/http`,
		[]string{"internal/wire"}, "", 0,
		`	"net/http"`,
		"internal/wire imports net/http; the HTTP debug plane lives in internal/debugz"},
	{31, "one-trace-root", `SetSampler|AttachTrace|attachTrace`,
		[]string{"internal/...", "cmd/..."}, "", 0,
		`	cl.SetSampler(telemetry.NewSampler(1, 0))`,
		"client-rooted tracing is back; traces are rooted at the coordinator"},
	{39, "one-scheduler-verb-set", `func \(s \*Scheduler\) (Request|Commit|CommitHold|Release|Abort|Withdraw|OutDegree|TxnOps)\(|type Sched =`,
		[]string{"internal/..."}, "", 0,
		`func (s *Scheduler) Commit(t proto.TxnID) (Effects, error) {`,
		"a value-returning scheduler verb is back; use the *Into form"},
	{40, "one-emission-point", `telemetry\.Span(Hold|Decide|Release|Shed|Abort)\b`,
		[]string{"internal/dist", "internal/distsim"}, "internal/dist/script.go", 0,
		`	e.span(telemetry.SpanHold, id, sid, 0, 0, 0)`,
		"a conversation span is recorded by hand; name it in dist's boundaries table"},
	// The bracket in p[s]tats (the coordinator's shadow policy counters)
	// and the split example keep this file itself out of a
	// repository-wide grep for the retired names.
	{42, "one-histogram", `metrics\.(Hist|Window|Quantile)\b|p[s]tats`,
		[]string{"internal/...", "cmd/..."}, "", 0,
		`	convoy metrics` + `.Hist`,
		"the simulator measures with telemetry.Histogram, and PolicyStats is a view of the coordinator's instruments"},
	// bench/ still sets the deprecated Config.FaultTolerant; it is
	// outside the scope.
	{45, "one-cluster", `ErrNotFaultTolerant|NewFaultTolerantCluster|FaultTolerant:|flog [!=]= nil|\.cr [!=]= nil`,
		[]string{"internal/...", "cmd/...", "examples/..."}, "", 0,
		`	if c.flog == nil || len(txns) == 0 {`,
		"a plain cluster is back; every cluster is crash-stop over a decision log"},
	{46, "one-connection-life", `resyncDelay|lastKey|upPhase|OnDown func\(gen`,
		[]string{"internal/...", "cmd/..."}, "", 0,
		`	OnDown func(gen int)`,
		"the peer runs each connection's up and down in order; the binding reorders nothing"},
	{49, "one-figure-runner", `sccbench|benchjson|BENCH_[0-9]|HoldOpen`,
		[]string{".", "internal/...", "cmd/..."}, "", 0,
		`	go run ./cmd/sccbench -experiment fig4`,
		"sccsim -experiment runs the figures; wall-clock numbers come from bench/ and go test -bench"},
	{51, "one-span-plane", `SpanExemplars|span_exemplars|NewSampler|telemetry\.Sampler\b|EffectiveSampleRate|AttachSpans|SampleConfig\(|CoreStats|\bObserver\b`,
		[]string{".", "internal/...", "cmd/...", "examples/..."}, "", 0,
		`	c.sampler = telemetry.NewSampler(cfg.SampleSeed, rate)`,
		"the span plane is one SpanBuffer a process builds once and passes as it is; the scheduler counts into core.Stats"},
	{55, "one-adoption-executor", `adoptVerb|kFactory|func \(s \*SiteServer\) settled|func \(t \*Txn\) siteFailure`,
		[]string{"internal/wire", "internal/dist", "internal/distsim"}, "", 0,
		`			rr, err := rs.peer.call(adoptVerb[e.act], telemetry.TraceContext{}, b)`,
		"the wire reconcile runs dist.Action.At, which forgets what it ends, so the daemon tolerates no duplicate of a settled verb"},
	// wire.go's encodeErr is the codec, not a classification, so the
	// classifier row stays out of internal/wire.
	{59, "one-verb-outcome", `func siteFailure|errors\.Is\(err, (fault\.ErrSiteDown|core\.ErrUnknownTxn)\)`,
		[]string{"internal/dist", "internal/distsim"}, "internal/dist/script.go", 0,
		`		down, gone := errors.Is(err, fault.ErrSiteDown), errors.Is(err, core.ErrUnknownTxn)`,
		"a participant's error is read once, by dist.Classify; switch on its VerbOutcome"},
	{59, "one-reconcile", `still has out-edges|AdoptVerdict\(`,
		[]string{"internal/wire", "internal/distsim"}, "", 0,
		`			return rep, fmt.Errorf("wire: site %d: adopted T%d still has out-edges", rs.sid, waiting[0].txn)`,
		"the restart reconcile (verdict, drain order, report) is dist.Reconcile; the wire and the simulator call it"},
}

// TestRetiredNamesStayRetired fails when a retired name is back in
// non-test code (or, for a counted row, when the count moved).
func TestRetiredNamesStayRetired(t *testing.T) {
	for _, row := range retiredNames {
		t.Run(fmt.Sprintf("PR%d/%s", row.pr, row.name), func(t *testing.T) {
			re := regexp.MustCompile(row.pattern)
			if !re.MatchString(row.example) {
				t.Fatalf("the pattern does not match its own example %q", row.example)
			}
			var hits []string
			for _, file := range scopeFiles(t, row.scope, row.except) {
				hits = append(hits, matchingLines(t, file, re)...)
			}
			if len(hits) != row.want {
				t.Errorf("%d matching lines, want %d: %s\n%s", len(hits), row.want, row.why, strings.Join(hits, "\n"))
			}
		})
	}
}

// scopeFiles lists the non-test Go files a scope covers, except one.
func scopeFiles(t *testing.T, scope []string, except string) []string {
	t.Helper()
	var files []string
	for _, dir := range scope {
		root, deep := strings.CutSuffix(dir, "/...")
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && path != root && !deep:
				return fs.SkipDir
			case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") && filepath.ToSlash(path) != except:
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(files) == 0 {
		t.Fatalf("scope %v covers no files", scope)
	}
	return files
}

// matchingLines returns file:line: text for each line re matches.
func matchingLines(t *testing.T, file string, re *regexp.Regexp) []string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var hits []string
	for i, line := range strings.Split(string(data), "\n") {
		if re.MatchString(line) {
			hits = append(hits, fmt.Sprintf("%s:%d: %s", file, i+1, line))
		}
	}
	return hits
}
