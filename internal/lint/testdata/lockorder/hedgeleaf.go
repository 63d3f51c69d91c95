// lockorder fixture: the front-end's hedge and fleet bookkeeping
// mutexes are leaves — hedgedAttempt.mu guards the hedge race's
// primary/backup handshake, fleetState.healthMu the per-peer health
// verdicts, and nothing else is acquired under either. Nesting one
// under the other (either order) flags under prord/internal/httpfront,
// where both classes are ranked leaves.
package httpfront

import "sync"

type hedgedAttempt struct {
	mu          sync.Mutex
	primaryDone bool
	launched    bool
}

type fleetState struct {
	healthMu sync.Mutex
	verdicts map[int]bool
}

// launchThenMark is the clean shape: each leaf is taken alone,
// innermost.
func (h *hedgedAttempt) launchThenMark(fs *fleetState, peer int) bool {
	h.mu.Lock()
	launched := !h.primaryDone
	h.launched = launched
	h.mu.Unlock()
	fs.healthMu.Lock()
	defer fs.healthMu.Unlock()
	fs.verdicts[peer] = launched
	return launched
}

// badVerdictUnderHandshake holds the handshake mutex across the
// verdict update — a leaf acquired under a leaf.
func (h *hedgedAttempt) badVerdictUnderHandshake(fs *fleetState) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.launched {
		fs.healthMu.Lock() // want lockorder
		fs.verdicts[0] = true
		fs.healthMu.Unlock()
	}
}

// badHandshakeUnderVerdict is the inverse nesting; leaf rules are
// direction-independent.
func (h *hedgedAttempt) badHandshakeUnderVerdict(fs *fleetState) {
	fs.healthMu.Lock()
	defer fs.healthMu.Unlock()
	h.mu.Lock() // want lockorder
	h.launched = true
	h.mu.Unlock()
}
