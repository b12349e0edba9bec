package wire

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
)

// TestVerbOutcomeSurvivesWire: a participant's error means the same to
// dist.Classify after the codec carried it as before — a remote site's
// refusal is read as a local one's is.
func TestVerbOutcomeSurvivesWire(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want dist.VerbOutcome
	}{
		{"site-down", fmt.Errorf("site 1 crashed: %w", fault.ErrSiteDown), dist.VerbDown},
		{"unknown-txn", fmt.Errorf("T7: %w", core.ErrUnknownTxn), dist.VerbGone},
		{"terminated", core.ErrTxnTerminated, dist.VerbViolation},
		{"closed", core.ErrClosed, dist.VerbViolation},
		{"aborted", &core.ErrAborted{Txn: 7, Reason: core.ReasonDeadlock}, dist.VerbViolation},
		{"txn-done", core.ErrTxnDone, dist.VerbViolation},
		{"duplicate", core.ErrDuplicateTxn, dist.VerbViolation},
		{"generic", errors.New("release of T7 still has 1 outstanding dependencies"), dist.VerbViolation},
	} {
		if got := dist.Classify(tc.err); got != tc.want {
			t.Errorf("%s: local error classifies as %d, want %d", tc.name, got, tc.want)
		}
		if got := dist.Classify(decodeErr(encodeErr(tc.err))); got != tc.want {
			t.Errorf("%s: decoded error classifies as %d, want %d", tc.name, got, tc.want)
		}
	}
}
