package wire

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestPeerRunsTransitionsInOrder: a connection's transitions run one
// at a time, in order. The connection drops while its OnUp is blocked,
// and its OnDown waits until that OnUp returned; the next dial waits
// for OnDown and follows it at once. An OnUp error drops its
// connection, and the redial loop brings up the next one after
// RedialDelay.
func TestPeerRunsTransitionsInOrder(t *testing.T) {
	srv, err := ServeSites(SiteServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const delay = 500 * time.Millisecond
	var (
		mu     sync.Mutex
		events []string
		at     []time.Time
	)
	note := func(e string) {
		mu.Lock()
		events = append(events, e)
		at = append(at, time.Now())
		mu.Unlock()
	}
	downSeen := make(chan struct{}, 3)
	ups := 0
	third := make(chan struct{})
	var p *Peer
	p = NewPeer(PeerConfig{
		Addr:        srv.Addr(),
		Redial:      true,
		RedialDelay: delay,
		OnUp: func() error {
			ups++
			note("up")
			switch ups {
			case 1:
				p.DropConnection()
				select {
				case <-downSeen:
					note("down-inside-up")
				case <-time.After(100 * time.Millisecond):
				}
			case 2:
				note("up-fails")
				return errors.New("reconcile failed")
			case 3:
				close(third)
			}
			note("up-returns")
			return nil
		},
		OnDown: func() {
			note("down")
			downSeen <- struct{}{}
			time.Sleep(10 * time.Millisecond)
			note("down-returns")
		},
	})
	defer p.Close()
	if err := p.Connect(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-third:
	case <-time.After(10 * time.Second):
		t.Fatal("the peer never came up a third time")
	}
	want := []string{
		"up", "up-returns", "down", "down-returns",
		"up", "up-fails", "down", "down-returns",
		"up", "up-returns",
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(events, want) {
		t.Fatalf("transitions\n got %v\nwant %v", events, want)
	}
	if gap := at[4].Sub(at[3]); gap >= delay {
		t.Errorf("redial after a loss took %v, want it at once", gap)
	}
	if gap := at[8].Sub(at[7]); gap < delay {
		t.Errorf("redial after a failed OnUp took %v, want at least %v", gap, delay)
	}
}
