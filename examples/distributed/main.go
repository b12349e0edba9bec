// Distributed: the §6 extension. Objects are partitioned across three
// sites; transactions span sites; commit dependencies collected at
// different sites are mirrored at the coordinator, which catches a
// cross-site cycle that no single site can see and runs the atomic
// commit conversation (pseudo-commit-and-hold everywhere, release when
// the global dependency set drains).
//
// This example uses the library's internal distributed package
// directly, since the distributed API is not part of the stable root
// facade.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/adt"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/dist"
)

func main() {
	cluster, err := dist.New(3, core.Options{}, dist.RouteByModulo(3))
	if err != nil {
		log.Fatal(err)
	}
	// Objects 1..6: pages spread over the three sites (id mod 3).
	for id := core.ObjectID(1); id <= 6; id++ {
		if err := cluster.Register(id, adt.Page{}, compat.PageTable()); err != nil {
			log.Fatal(err)
		}
	}
	write := func(v int) adt.Op { return adt.Op{Name: adt.PageWrite, Arg: v, HasArg: true} }

	// --- cross-site pseudo-commit ---
	t1 := cluster.Begin()
	t2 := cluster.Begin()
	if _, err := t1.Do(1, write(10)); err != nil { // site 1
		log.Fatal(err)
	}
	if _, err := t2.Do(1, write(11)); err != nil { // dep T2->T1 at site 1
		log.Fatal(err)
	}
	if _, err := t2.Do(2, write(22)); err != nil { // site 2, clean
		log.Fatal(err)
	}
	st, err := t2.Commit()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("T2 commit -> %v (held at every participant until T1 terminates)\n", st)
	if st, err := t1.Commit(); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("T1 commit -> %v\n", st)
	}
	<-t2.Done()
	if err := t2.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("T2 released: real commit landed at all sites")

	// --- a cycle only the coordinator can see ---
	a := cluster.Begin()
	b := cluster.Begin()
	if _, err := a.Do(4, write(40)); err != nil { // site 1
		log.Fatal(err)
	}
	if _, err := b.Do(5, write(50)); err != nil { // site 2
		log.Fatal(err)
	}
	if _, err := b.Do(4, write(41)); err != nil { // dep B->A at site 1
		log.Fatal(err)
	}
	fmt.Println("site 1 sees only B->A; site 2 sees nothing yet")
	_, err = a.Do(5, write(51)) // would add dep A->B at site 2: global cycle
	if !errors.Is(err, core.ErrTxnAborted) {
		log.Fatalf("expected the coordinator to abort A, got %v", err)
	}
	fmt.Printf("coordinator's mirrored graph caught the cross-site cycle: %v\n", err)
	if st, err := b.Commit(); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("B commits -> %v (A's writes were undone beneath it at every site)\n", st)
	}

	for id := core.ObjectID(4); id <= 5; id++ {
		s, err := cluster.Site(dist.SiteID(id % 3)).CommittedState(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("object %d final state: %v\n", id, s)
	}
}
