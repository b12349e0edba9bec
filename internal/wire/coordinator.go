package wire

import (
	"fmt"
	"time"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Coordinator is the whole coordinator process in one value: the
// crash-stop cluster over remote participants, the client-plane
// server, the decision log, and the peer connections to the site
// daemons. StartCoordinator builds it; Close tears it down without
// touching the daemons.
type Coordinator struct {
	Cluster *dist.Cluster
	Log     fault.Log

	// Adopted lists the commit decisions found in the log at startup —
	// transactions whose commit conversation a previous coordinator
	// incarnation decided but possibly never finished releasing.
	Adopted []core.TxnID
	// Reports holds each site's startup reconciliation report (redone
	// logged commits, presumed-aborted in-doubt holds). Sites whose
	// daemon was down at startup, or whose first reconcile failed, are
	// absent: they reconcile when the peer's redial lands.
	Reports map[dist.SiteID]fault.RecoveryReport

	server   *coordServer
	peers    []*Peer
	wireMet  *telemetry.WireMetrics
	closeLog func() error
}

// CoordinatorConfig parameterises StartCoordinator.
type CoordinatorConfig struct {
	// ClientAddr is the client-plane TCP listen address.
	ClientAddr string
	// Log is the coordinator's decision log. Restart-from-log adoption
	// needs a log that can enumerate outcomes (fault.FileLog and
	// fault.MemLog both can); nil means a fresh MemLog — correct for a
	// coordinator that can never restart, i.e. tests.
	Log fault.Log
	// CloseLog, when non-nil, is invoked by Close (for FileLog owners).
	CloseLog func() error
	// Daemons places the global sites onto site-daemon processes. The
	// union of all Sites lists must be exactly 0..N-1.
	Daemons []DaemonSpec
	// Workload is the workload spec (workload.ParseSpec) both planes
	// resolve object types from. Empty leaves registration disabled.
	Workload string
	// DialWait bounds how long startup waits for each daemon to accept
	// (default 10s). Startup proceeds with a daemon down: its sites
	// start crashed, the peer keeps redialling, and they reconcile and
	// adopt when the connection lands.
	DialWait time.Duration
	// Policy bounds the hold convoy (see dist.HoldPolicy): nil is the
	// cluster default, dist.Unbounded{} the paper's unbounded hold.
	Policy dist.HoldPolicy
	// Spans/Flight are the process's span plane and the flight recorder
	// that dumps it, handed to the cluster as they are (see
	// dist.Config); nil disables them.
	Spans  *telemetry.SpanBuffer
	Flight *telemetry.FlightRecorder
}

// DaemonSpec places a set of global site ids on one daemon address.
// Debug optionally gives the daemon its own debug-plane HTTP address.
type DaemonSpec struct {
	Listen string   `json:"listen"`
	Sites  []uint16 `json:"sites"`
	Debug  string   `json:"debug,omitempty"`
}

// StartCoordinator builds the coordinator over the configured site
// daemons and starts serving clients. The cluster exists before the
// first dial, so each daemon connection's first up is its sites'
// startup reconcile. If the decision log is non-empty — this
// coordinator is a restart of a crashed one — every logged commit is
// adopted before any client is served: each reachable site reports its
// surviving transactions, orphaned actives are aborted, in-doubt holds
// with a logged decision are released (redo) and the rest revoked
// (presumed abort), and the adopted decisions stay in the log until the
// owning clients resolve them (exactly-once commits across the crash).
func StartCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Log == nil {
		cfg.Log = fault.NewMemLog()
	}
	flog := cfg.Log
	nsites := 0
	for _, d := range cfg.Daemons {
		nsites += len(d.Sites)
	}
	if nsites == 0 {
		return nil, fmt.Errorf("wire: no sites configured")
	}
	var objFactory func(core.ObjectID) (adt.Type, compat.Classifier)
	if cfg.Workload != "" {
		gen, err := workload.ParseSpec(cfg.Workload)
		if err != nil {
			return nil, fmt.Errorf("wire: workload spec: %w", err)
		}
		objFactory = gen.Factory()
	}
	dialWait := cfg.DialWait
	if dialWait <= 0 {
		dialWait = 10 * time.Second
	}

	// decided routes reconcile-time redo checks through the cluster's
	// ClaimRedo arbitration, so a reconcile that redoes a logged direct
	// commit wins against the live conversation's withdrawal (see
	// dist.Cluster.ClaimRedo). clu is set before the first dial, and
	// only a connection's up reconciles.
	var clu *dist.Cluster
	decided := func(id core.TxnID) bool { return clu.ClaimRedo(id) }

	co := &Coordinator{
		Log:      flog,
		Reports:  make(map[dist.SiteID]fault.RecoveryReport),
		wireMet:  &telemetry.WireMetrics{},
		closeLog: cfg.CloseLog,
	}
	backends := make([]dist.SiteBackend, nsites)
	var binds []*PeerBinding
	fail := func(err error) (*Coordinator, error) {
		for _, p := range co.peers {
			p.Close()
		}
		return nil, err
	}
	for _, d := range cfg.Daemons {
		bind := &PeerBinding{startup: co.Reports}
		peer := NewPeer(PeerConfig{
			Addr:        d.Listen,
			Redial:      true,
			RedialDelay: 50 * time.Millisecond,
			OnDown:      bind.Down,
			OnUp:        bind.Up,
			Metrics:     co.wireMet,
		})
		co.peers = append(co.peers, peer)
		for _, sid := range d.Sites {
			if int(sid) >= nsites || backends[sid] != nil {
				return fail(fmt.Errorf("wire: bad site placement: site %d (want each of 0..%d exactly once)", sid, nsites-1))
			}
			backends[sid] = NewRemoteSite(peer, sid, decided)
			bind.sids = append(bind.sids, dist.SiteID(sid))
		}
		binds = append(binds, bind)
	}
	for sid, b := range backends {
		if b == nil {
			return fail(fmt.Errorf("wire: bad site placement: site %d unassigned", sid))
		}
	}

	c, err := dist.NewWithConfig(dist.Config{
		Sites:    nsites,
		Log:      flog,
		Backends: backends,
		Policy:   cfg.Policy,
		Spans:    cfg.Spans,
		Flight:   cfg.Flight,
	})
	if err != nil {
		return fail(err)
	}
	co.Cluster = c
	clu = c
	for _, b := range binds {
		b.c = c
	}

	// Adopt the previous incarnation's logged commits before any site
	// reconciles or any client connects: the gate keeps each decision in
	// the log until (a) every site has confirmed it needs no redo for it
	// (each successful Restart acks them) and (b) the owning client has
	// resolved the outcome.
	co.Adopted = c.Adopt()

	// Each daemon's first connection reconciles its sites, and every
	// later one after a loss runs that same reconcile. A daemon still
	// down at DialWait has its sites crashed, so client transactions
	// fail fast with the retryable verdict, and is redialled until it
	// is up.
	for _, p := range co.peers {
		_ = p.Connect(dialWait)
	}

	cs := &coordServer{cluster: c, factory: objFactory, flight: cfg.Flight, txns: make(map[core.TxnID]*servedTxn)}
	if err := cs.start(cfg.ClientAddr, cs.dispatch, cs.connCleanup); err != nil {
		return fail(err)
	}
	co.server = cs
	return co, nil
}

// Addr returns the client-plane listen address.
func (co *Coordinator) Addr() string { return co.server.Addr() }

// WireMetrics returns the transport instrument block shared by every
// daemon connection.
func (co *Coordinator) WireMetrics() *telemetry.WireMetrics { return co.wireMet }

// Close stops serving clients, closes the daemon connections and the
// decision log. The daemons themselves keep running (and keep their
// state; a new coordinator adopts it).
func (co *Coordinator) Close() error {
	co.server.Close()
	for _, p := range co.peers {
		p.Close()
	}
	co.Cluster.Close()
	if co.closeLog != nil {
		return co.closeLog()
	}
	return nil
}
