package core

import "repro/internal/adt"

// The scheduler's mutating API is the Participant *Into verb set. The
// helpers below run one verb with a fresh Effects and hand the effects
// back by value, the shape the scheduler tests assert on.

func doRequest(s *Scheduler, id TxnID, obj ObjectID, op adt.Op) (Decision, Effects, error) {
	var eff Effects
	dec, err := s.RequestInto(&eff, id, obj, op)
	return dec, eff, err
}

func doCommit(s *Scheduler, id TxnID) (CommitStatus, Effects, error) {
	var eff Effects
	st, err := s.CommitInto(&eff, id)
	return st, eff, err
}

func doCommitHold(s *Scheduler, id TxnID) (int, Effects, error) {
	var eff Effects
	deg, err := s.CommitHoldInto(&eff, id)
	return deg, eff, err
}

func doRelease(s *Scheduler, id TxnID) (Effects, error) {
	var eff Effects
	err := s.ReleaseInto(&eff, id)
	return eff, err
}

func doAbort(s *Scheduler, id TxnID) (Effects, error) {
	var eff Effects
	err := s.AbortInto(&eff, id)
	return eff, err
}

func doWithdraw(s *Scheduler, id TxnID) (Effects, error) {
	var eff Effects
	err := s.WithdrawInto(&eff, id)
	return eff, err
}
