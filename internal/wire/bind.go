package wire

import (
	"repro/internal/dist"
	"repro/internal/fault"
)

// PeerBinding maps one peer's connection state onto the cluster's
// crash-stop model: connection loss is the crash of every site the
// daemon serves, and a connection's up is their restart, the
// reconciliation against the decision log. Install Down/Up as the
// peer's OnDown/OnUp. The peer runs them one at a time and in
// connection order (see PeerConfig), so the binding keeps no lock and
// orders nothing itself.
type PeerBinding struct {
	c    *dist.Cluster
	sids []dist.SiteID
	// startup, until the first Up or Down, receives each site's report
	// of the startup reconcile.
	startup map[dist.SiteID]fault.RecoveryReport
}

// Up reconciles the daemon's sites. The first Up is the startup
// reconcile of every site, which also adopts what a previous
// coordinator left there; a later one restarts the sites the Down
// before it crashed.
func (b *PeerBinding) Up() error {
	startup := b.startup
	b.startup = nil
	for _, sid := range b.sids {
		if startup == nil && !b.c.SiteDown(sid) {
			continue
		}
		rep, err := b.c.Restart(sid)
		if err != nil {
			return err
		}
		if startup != nil {
			startup[sid] = rep
		}
	}
	return nil
}

// Down crashes every bound site that is still up.
func (b *PeerBinding) Down() {
	b.startup = nil
	for _, sid := range b.sids {
		if !b.c.SiteDown(sid) {
			_ = b.c.Crash(sid)
		}
	}
}
