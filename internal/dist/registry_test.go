package dist

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
)

// TestRegistryShardStress hammers the sharded live-transaction
// registry from many goroutines: edge-free commits (register,
// fast-path finalise), contended conversations (register, mirror
// marking via filterLive, cascade finalise) and aborts, all racing a
// draining close. Run under -race this exercises every registry
// transition — add, get, markMirror, unregister — across shard
// boundaries; the final drain proves no transaction is leaked or
// double-finalised.
func TestRegistryShardStress(t *testing.T) {
	// Any abort is a failure here, a shed included: hold unboundedly.
	c, err := NewWithConfig(Config{Sites: 4, Policy: Unbounded{}})
	if err != nil {
		t.Fatal(err)
	}
	const objects = 64
	for id := core.ObjectID(1); id <= objects; id++ {
		if err := c.Register(id, adt.Stack{}, compat.StackTable()); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 16
	const txnsPerWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsPerWorker; i++ {
				tx := c.Begin()
				// Distinct pushes are recoverable, non-commuting:
				// colliding workers grow commit dependencies and take
				// the conversation path; lone ones stay edge-free.
				obj := core.ObjectID(1 + (w*txnsPerWorker+i)%objects)
				if _, err := tx.Do(obj, adt.Op{Name: adt.StackPush, Arg: w<<16 | i, HasArg: true}); err != nil {
					continue // aborted (deadlock/cycle): already finalised
				}
				if i%7 == 0 {
					if err := tx.Abort(); err != nil {
						t.Error(err)
					}
					continue
				}
				if _, err := tx.Commit(); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.CloseCtx(ctx); err != nil {
		t.Fatalf("draining close after stress: %v (live=%d)", err, c.reg.count())
	}
	if n := c.reg.count(); n != 0 {
		t.Fatalf("registry leaked %d transactions", n)
	}
}

// TestBeginCloseRace pins the Begin/Close interleaving: a Begin that
// races the closed flag either runs to completion or fails with
// ErrClosed, and the draining close never waits on a transaction that
// was refused.
func TestBeginCloseRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		c, err := New(2, core.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Register(1, adt.Page{}, compat.PageTable()); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			<-start
			tx := c.Begin()
			if _, err := tx.Do(1, adt.Op{Name: adt.PageWrite, Arg: 1, HasArg: true}); err != nil {
				if !errors.Is(err, core.ErrClosed) {
					t.Errorf("raced Begin failed oddly: %v", err)
				}
				return
			}
			if _, err := tx.Commit(); err != nil {
				t.Errorf("raced commit: %v", err)
			}
		}()
		close(start)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := c.CloseCtx(ctx); err != nil {
			t.Fatalf("round %d: draining close: %v", round, err)
		}
		cancel()
		<-done
	}
}
