// Faults: crash-stop fault tolerance on the §6 cluster. A two-site
// cluster runs a bank-style scenario and a site is crashed at the
// three interesting moments:
//
//  1. mid-transaction — the in-flight transaction aborts with the
//     typed ErrSiteFailed (retryable) and its operations at the
//     surviving site are undone;
//  2. while a transaction is pseudo-committed-and-held with no commit
//     decision in the coordinator's log — presumed abort: the hold is
//     revoked everywhere and a restart finds nothing to redo;
//  3. after the commit decision is logged but before the release
//     reaches the site — the restarted site redoes the transaction
//     from its forced prepare record (logged outcomes are
//     re-released).
//
// Throughout, committed state survives every crash: the committed base
// is the site's simulated disk.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
)

func write(v int) adt.Op { return adt.Op{Name: adt.PageWrite, Arg: v, HasArg: true} }

func state(c *dist.Cluster, id core.ObjectID) string {
	st, err := c.Site(c.SiteOf(id)).CommittedState(id)
	if err != nil {
		return fmt.Sprintf("<%v>", err)
	}
	return fmt.Sprint(st)
}

func main() {
	cluster, err := dist.New(2, core.Options{}, nil)
	if err != nil {
		log.Fatal(err)
	}
	// Object 1 lives at site 1, object 2 at site 0.
	for id := core.ObjectID(1); id <= 2; id++ {
		if err := cluster.Register(id, adt.Page{}, compat.PageTable()); err != nil {
			log.Fatal(err)
		}
	}

	// --- 1. crash mid-transaction ---
	t1 := cluster.Begin()
	if _, err := t1.Do(2, write(100)); err != nil { // site 0
		log.Fatal(err)
	}
	if _, err := t1.Do(1, write(200)); err != nil { // site 1
		log.Fatal(err)
	}
	if err := cluster.Crash(1); err != nil {
		log.Fatal(err)
	}
	_, err = t1.Do(2, write(101))
	fmt.Printf("Do after losing a participant: %v\n", err)
	fmt.Printf("  errors.Is(err, ErrSiteFailed) = %v (retryable)\n", errors.Is(err, core.ErrSiteFailed))
	fmt.Printf("  survivor rolled back: object 2 = %s\n", state(cluster, 2))
	if rep, err := cluster.Restart(1); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("  restart: redone=%v presumed-aborted=%v\n\n", rep.Redone, rep.PresumedAborted)
	}

	// --- 2. presumed abort of an unlogged hold ---
	a, b := cluster.Begin(), cluster.Begin()
	if _, err := a.Do(2, write(10)); err != nil { // site 0
		log.Fatal(err)
	}
	if _, err := b.Do(2, write(11)); err != nil { // dep B->A at site 0
		log.Fatal(err)
	}
	if _, err := b.Do(1, write(22)); err != nil { // site 1
		log.Fatal(err)
	}
	st, err := b.Commit()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("B commits while depending on A: %v (held at both sites)\n", st)
	if err := cluster.Crash(1); err != nil {
		log.Fatal(err)
	}
	<-b.Done()
	fmt.Printf("  site 1 crashed before B's commit point: B ends %v\n", b.Err())
	if st, err := a.Commit(); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("  A (never touched site 1) commits: %v\n", st)
	}
	rep, err := cluster.Restart(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  restart: redone=%v presumed-aborted=%v — B's unlogged hold is discarded\n", rep.Redone, rep.PresumedAborted)
	fmt.Printf("  object 2 = %s (A's write), object 1 = %s (B's write gone)\n\n", state(cluster, 2), state(cluster, 1))

	// --- 3. redo of a logged commit ---
	x, y := cluster.Begin(), cluster.Begin()
	if _, err := x.Do(2, write(30)); err != nil { // site 0
		log.Fatal(err)
	}
	if _, err := y.Do(2, write(31)); err != nil { // dep Y->X at site 0
		log.Fatal(err)
	}
	if _, err := y.Do(1, write(44)); err != nil { // site 1
		log.Fatal(err)
	}
	if st, err := y.Commit(); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("Y commits while depending on X: %v\n", st)
	}
	// Site 1 dies silently (the fault layer is crashed directly,
	// bypassing the cluster's detection) — so when X's commit drains
	// Y's dependency the coordinator logs Y's commit and its release
	// simply skips the dead site.
	if err := cluster.Site(1).(*fault.Crashable).Crash(); err != nil {
		log.Fatal(err)
	}
	if st, err := x.Commit(); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("  X commits: %v -> Y's global dependency set drains\n", st)
	}
	<-y.Done()
	fmt.Printf("  Y's commit was logged before the crash was detected: Y ends err=%v\n", y.Err())
	rep, err = cluster.Restart(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  restart: redone=%v presumed-aborted=%v — the prepare record is replayed\n", rep.Redone, rep.PresumedAborted)
	fmt.Printf("  object 1 = %s (Y's write recovered), object 2 = %s\n", state(cluster, 1), state(cluster, 2))
}
