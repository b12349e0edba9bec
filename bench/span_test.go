package main

import (
	"testing"
	"time"
)

func sp(id, parent uint64, name spanName, start, end int64) span {
	return span{ID: id, Txn: 1, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	parent := sp(1, 0, spTxn, 100, 200)
	for _, c := range []struct {
		what     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"children cover the parent", []span{sp(2, 1, spDo, 100, 150), sp(3, 1, spDo, 150, 200)}, 0},
		{"gaps are self time", []span{sp(2, 1, spDo, 110, 120), sp(3, 1, spDo, 150, 180)}, 60},
		{"overlapping children count once", []span{sp(2, 1, spDo, 100, 160), sp(3, 1, spDo, 140, 180)}, 20},
		{"nested duplicate", []span{sp(2, 1, spDo, 100, 180), sp(3, 1, spDo, 120, 130)}, 20},
		{"children are clipped to the parent", []span{sp(2, 1, spDo, 50, 120), sp(3, 1, spDo, 190, 400)}, 70},
		{"a child outside covers nothing", []span{sp(2, 1, spHoldWait, 200, 900)}, 100},
		{"empty child", []span{sp(2, 1, spDo, 150, 150)}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.what, got, c.want)
		}
	}
}

func TestCheckTreesCatchesOverlap(t *testing.T) {
	good := []span{
		sp(2, 1, spAttempt, 100, 190),
		sp(3, 2, spBegin, 100, 110),
		sp(4, 2, spDo, 110, 150),
		sp(5, 2, spCommit, 160, 190),
		sp(1, 0, spTxn, 100, 200),
		sp(6, 1, spHoldWait, 200, 5000), // starts where the txn ends: not part of its budget
	}
	if n, err := checkTrees(good); err != nil || n != 1 {
		t.Fatalf("good tree: n=%d err=%v", n, err)
	}
	bad := append([]span(nil), good...)
	bad[2] = sp(4, 2, spDo, 105, 150) // overlaps begin
	if _, err := checkTrees(bad); err == nil {
		t.Fatal("overlapping children passed the budget check")
	}
	escaped := append([]span(nil), good...)
	escaped[3] = sp(5, 2, spCommit, 160, 195) // outlives its attempt
	if _, err := checkTrees(escaped); err == nil {
		t.Fatal("a child outliving its parent passed the budget check")
	}
}

// The recorder's running self times must add up to the whole: every
// nanosecond of a txn span is some span's self time.
func TestRecorderBudgetSumsToOne(t *testing.T) {
	r := newRecorder(time.Now(), 0)
	for i := 0; i < 50; i++ {
		r.startTxn(true, i%2 == 0)
		for a := 0; a < 2; a++ {
			if a > 0 {
				r.open(spBackoff)
				time.Sleep(50 * time.Microsecond)
				r.close()
			}
			r.open(spAttempt)
			r.open(spBegin)
			r.close()
			for k := 0; k < 3; k++ {
				r.open(spDo)
				r.close()
			}
			r.open(spCommit)
			r.close()
			r.close()
		}
		r.close()
	}
	// A transaction outside the window records nothing.
	r.startTxn(false, true)
	r.open(spAttempt)
	r.close()
	r.close()

	b := mergeRecorders([]*recorder{r})
	if got := b.durs[spTxn].n; got != 50 {
		t.Fatalf("recorded %d txn spans, want 50", got)
	}
	if got := b.durs[spDo].n; got != 300 {
		t.Fatalf("recorded %d do spans, want 300", got)
	}
	var total float64
	for _, s := range b.selfShare {
		total += s
	}
	if total < 0.999999 || total > 1.000001 {
		t.Errorf("self shares sum to %.9f, want 1", total)
	}
	if b.selfShare[spBackoff] <= 0 {
		t.Error("backoff has no share")
	}
	trees, err := checkTrees(b.kept)
	if err != nil {
		t.Fatal(err)
	}
	if trees != 25 {
		t.Errorf("kept %d trees, want the 25 sampled ones", trees)
	}
}
