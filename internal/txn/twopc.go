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

// Remote is an optional Participant extension. A participant living at the
// coordinator's own site reports false and is called inline; one without
// the method counts as remote.
type Remote interface {
	Remote() bool
}

// ErrAborted reports that two-phase commit rolled the transaction back.
var ErrAborted = errors.New("txn: transaction aborted")

// Coordinator drives two-phase commit over a set of participants.
type Coordinator struct {
	// OnePhase skips the prepare round for single-participant commits.
	OnePhase bool
}

// Commit runs the protocol, broadcasting each phase to the participants
// (Fanout: local ones inline, remote round trips overlapped). If any
// participant fails prepare, every participant aborts and ErrAborted
// (wrapping the first vote error) is returned.
func (c *Coordinator) Commit(txnID uint64, parts []Participant) error {
	if len(parts) == 0 {
		return nil
	}
	if c.OnePhase && len(parts) == 1 {
		return parts[0].Commit(txnID)
	}
	remote := func(i int) bool {
		r, ok := parts[i].(Remote)
		return !ok || r.Remote()
	}
	// Phase 1: prepare.
	if i, err := Fanout(len(parts), remote, func(i int) error { return parts[i].Prepare(txnID) }); err != nil {
		Fanout(len(parts), remote, func(i int) error { return parts[i].Abort(txnID) })
		return fmt.Errorf("%w: participant %d voted no: %w", ErrAborted, i, err)
	}
	// Phase 2: commit. Votes are in; failures here are reported but the
	// decision is commit (participants recover forward from their logs).
	if i, err := Fanout(len(parts), remote, func(i int) error { return parts[i].Commit(txnID) }); err != nil {
		return fmt.Errorf("txn: participant %d commit: %w", i, err)
	}
	return nil
}

// Fanout runs call(i) for every i in [0, n) and returns the lowest-indexed
// failure, or (-1, nil). Calls for which remote(i) is false run inline on
// the caller. The remote ones overlap their round trips: each but the last
// runs on a goroutine of its own and the last on the caller, so a lone
// remote call costs no goroutine.
func Fanout(n int, remote func(int) bool, call func(int) error) (int, error) {
	last := -1
	for i := n - 1; i >= 0 && last < 0; i-- {
		if remote(i) {
			last = i
		}
	}
	var errs []error
	var wg sync.WaitGroup
	for i := 0; i < last; i++ {
		if !remote(i) {
			continue
		}
		if errs == nil {
			errs = make([]error, n)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = call(i)
		}()
	}
	first, firstErr := -1, error(nil)
	for i := 0; i < n; i++ {
		if i == last || !remote(i) {
			if err := call(i); err != nil && first < 0 {
				first, firstErr = i, err
			}
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && (first < 0 || i < first) {
			first, firstErr = i, err
		}
	}
	return first, firstErr
}
