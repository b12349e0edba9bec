package fault

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
)

// refRecord is one line the reference parser accepted.
type refRecord struct {
	kind byte
	id   uint64
}

// refParse is the replay rule written out independently of
// parseLogLine: a record is 'C', 'A' or 'T', one space, and one or
// more ASCII digits whose value fits in 64 bits, ended by '\n'. It
// returns the records of the longest prefix of such lines and that
// prefix's length.
func refParse(data []byte) ([]refRecord, int) {
	var recs []refRecord
	good := 0
	for {
		nl := bytes.IndexByte(data[good:], '\n')
		if nl < 0 {
			return recs, good
		}
		line := data[good : good+nl]
		if len(line) < 3 || line[1] != ' ' || (line[0] != 'C' && line[0] != 'A' && line[0] != 'T') {
			return recs, good
		}
		var id uint64
		for _, c := range line[2:] {
			if c < '0' || c > '9' {
				return recs, good
			}
			d := uint64(c - '0')
			if id > (math.MaxUint64-d)/10 {
				return recs, good // over 2^64-1
			}
			id = id*10 + d
		}
		recs = append(recs, refRecord{kind: line[0], id: id})
		good += nl + 1
	}
}

// refFold replays the records: later records win and 'T' deletes.
func refFold(recs []refRecord) map[core.TxnID]Outcome {
	m := make(map[core.TxnID]Outcome)
	for _, r := range recs {
		switch r.kind {
		case 'C':
			m[core.TxnID(r.id)] = OutcomeCommit
		case 'A':
			m[core.TxnID(r.id)] = OutcomeAbort
		case 'T':
			delete(m, core.TxnID(r.id))
		}
	}
	return m
}

// checkReplay asserts the log's live set is exactly want.
func checkReplay(t *testing.T, l *FileLog, want map[core.TxnID]Outcome) {
	t.Helper()
	for _, o := range []Outcome{OutcomeCommit, OutcomeAbort} {
		if got, ref := l.OutcomeIDs(o), outcomeIDs(want, o); !slices.Equal(got, ref) {
			t.Fatalf("OutcomeIDs(%s) = %v, want %v", o, got, ref)
		}
	}
	if l.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(want))
	}
}

// FuzzFileLogReplay writes arbitrary bytes as a decision-log file and
// checks OpenFileLog against the reference parser: the file is cut to
// the longest valid prefix, the live set is the reference fold, a
// reopen changes nothing, and a record appended after a torn tail
// survives a reopen without fusing with the fragment.
func FuzzFileLogReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "decisions.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, good := refParse(data)
		want := refFold(recs)

		l, err := OpenFileLog(path, false)
		if err != nil {
			t.Fatal(err)
		}
		checkReplay(t, l, want)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, data[:good]) {
			t.Fatalf("file after open = %q, want the valid prefix %q", onDisk, data[:good])
		}

		// Reopening the cut file is idempotent.
		l, err = OpenFileLog(path, false)
		if err != nil {
			t.Fatal(err)
		}
		checkReplay(t, l, want)

		// A fresh record lands on its own line after the cut.
		id := core.TxnID(1)
		for ; ; id++ {
			if _, ok := want[id]; !ok {
				break
			}
		}
		if err := l.Record(id, OutcomeCommit); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		want[id] = OutcomeCommit
		l, err = OpenFileLog(path, false)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		checkReplay(t, l, want)
		onDisk, err = os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tail := "C " + strconv.FormatUint(uint64(id), 10) + "\n"
		if !bytes.Equal(onDisk, append(data[:good:good], tail...)) {
			t.Fatalf("file after record = %q, want %q + %q", onDisk, data[:good], tail)
		}
	})
}
