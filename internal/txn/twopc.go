package txn

import (
	"errors"
	"fmt"
	"sync"
)

// Participant is one site's interface to distributed commit. The transport
// layer adapts these calls onto network messages; Proteus coordinates
// distributed updates with two-phase commit when a transaction writes
// partitions mastered at multiple sites (§4.3).
type Participant interface {
	// Prepare durably stages the transaction's writes at the site and
	// votes. A nil error is a yes-vote.
	Prepare(txnID uint64) error
	// Commit makes the staged writes visible. Called only after every
	// participant voted yes.
	Commit(txnID uint64) error
	// Abort discards staged writes.
	Abort(txnID uint64) error
}

// ErrAborted reports that two-phase commit rolled the transaction back.
var ErrAborted = errors.New("txn: transaction aborted")

// Coordinator drives two-phase commit over a set of participants.
type Coordinator struct {
	// OnePhase skips the prepare round for single-participant commits.
	OnePhase bool
}

// Commit runs the protocol, contacting participants in parallel within
// each phase (the coordinator broadcasts prepares and commits). If any
// participant fails prepare, every participant aborts and ErrAborted
// (wrapping the first vote error) is returned.
func (c *Coordinator) Commit(txnID uint64, parts []Participant) error {
	if len(parts) == 0 {
		return nil
	}
	if c.OnePhase && len(parts) == 1 {
		return parts[0].Commit(txnID)
	}
	broadcast := func(f func(Participant) error) []error {
		errs := make([]error, len(parts))
		var wg sync.WaitGroup
		for i, p := range parts {
			i, p := i, p
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = f(p)
			}()
		}
		wg.Wait()
		return errs
	}
	// Phase 1: prepare.
	votes := broadcast(func(p Participant) error { return p.Prepare(txnID) })
	for i, err := range votes {
		if err != nil {
			broadcast(func(p Participant) error { return p.Abort(txnID) })
			return fmt.Errorf("%w: participant %d voted no: %w", ErrAborted, i, err)
		}
	}
	// Phase 2: commit. Votes are in; failures here are reported but the
	// decision is commit (participants recover forward from their logs).
	for i, err := range broadcast(func(p Participant) error { return p.Commit(txnID) }) {
		if err != nil {
			return fmt.Errorf("txn: participant %d commit: %w", i, err)
		}
	}
	return nil
}
