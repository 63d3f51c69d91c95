package httpfront

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
)

// reply is one client request's single response slot. Every proxied
// attempt for the request — the primary, a hedged backup, a failover
// retry — writes through its own attempt over the reply, and exactly
// one of them (or release, when none could) commits the client writer,
// decided by one compare-and-swap on owner.
type reply struct {
	dst   http.ResponseWriter
	owner atomic.Pointer[attempt]
}

// attempt opens an attempt writer for one proxied try on server, run
// under ctx. final marks the last attempt that can still answer the
// client: its 5xx streams through instead of being swallowed.
func (rep *reply) attempt(ctx context.Context, server int, final bool) *attempt {
	return &attempt{reply: rep, ctx: ctx, server: server, final: final,
		header: make(http.Header), status: http.StatusOK}
}

// committed reports whether some attempt (or release) owns the client
// writer.
func (rep *reply) committed() bool { return rep.owner.Load() != nil }

// status is the status code the client was sent; valid once committed.
func (rep *reply) status() int { return rep.owner.Load().status }

// release answers the client when no attempt committed, on behalf of a
// (the request's last failed or abandoned attempt): its buffered head
// with its status and a minimal status-text body. a's own body was
// discarded, so its Content-Length no longer applies.
func (rep *reply) release(a *attempt) {
	if !rep.owner.CompareAndSwap(nil, a) {
		return
	}
	a.header.Del("Content-Length")
	a.header.Set("Content-Type", "text/plain; charset=utf-8")
	a.commitHead()
	io.WriteString(rep.dst, http.StatusText(a.status)+"\n")
}

// outcome is how one proxied attempt ended.
type outcome uint8

const (
	pending outcome = iota // nothing written yet (never an end result)
	// committed: the attempt's success head reached the client.
	committed
	// failed: a 5xx or transport error (deadline expiry included) while
	// the client still waited — swallowed, or streamed through on the
	// final attempt.
	failed
	// lost: a racing attempt reached the client first; this one was
	// discarded and its transfer canceled.
	lost
	// abandoned: the attempt's context was canceled (the client hung up)
	// before any attempt answered.
	abandoned
)

// attempt is one proxied try's http.ResponseWriter. It buffers the
// backend's response head until a success status (or implicit 200)
// arrives, then claims the reply and streams straight through. A 5xx
// never claims the reply unless the attempt is final, so a failover
// retry or a racing hedge can still answer. An attempt is only used
// from its own goroutine; the reply's owner is the sole shared state.
type attempt struct {
	reply  *reply
	ctx    context.Context
	server int
	final  bool
	// cancel stops this attempt's transfer once nobody will read it, and
	// onClaim cancels a racing partner once this attempt owns the reply;
	// both are set only for the legs of a hedge race.
	cancel  context.CancelFunc
	onClaim func()

	header http.Header
	status int
	state  outcome // pending, committed, failed or abandoned
	owns   bool    // this attempt holds the reply's client writer
}

func (a *attempt) Header() http.Header {
	if a.owns {
		return a.reply.dst.Header()
	}
	return a.header
}

// commitHead copies the buffered head to the client writer.
func (a *attempt) commitHead() {
	dst := a.reply.dst.Header()
	for k, vv := range a.header {
		dst[k] = vv
	}
	dst.Set(BackendHeader, strconv.Itoa(a.server))
	a.owns = true
	a.reply.dst.WriteHeader(a.status)
}

// claim takes the reply for this attempt if no other attempt holds it;
// a loser stops its own transfer, since nobody will read it.
func (a *attempt) claim() bool {
	if !a.reply.owner.CompareAndSwap(nil, a) {
		a.state = abandoned
		if a.cancel != nil {
			a.cancel()
		}
		return false
	}
	a.commitHead()
	if a.onClaim != nil {
		a.onClaim()
	}
	return true
}

func (a *attempt) WriteHeader(code int) {
	// Informational heads are not forwarded: the attempt may still fail,
	// and only the final head may claim the reply.
	if a.state != pending || code < http.StatusOK {
		return
	}
	a.status = code
	if code < http.StatusInternalServerError {
		if a.claim() {
			a.state = committed
		}
		return
	}
	if a.ctx.Err() == context.Canceled {
		// Not a backend failure: the client hung up, or a racing attempt
		// already answered and canceled this one. The deadline budget
		// expiring reports DeadlineExceeded and does count as failed.
		a.state = abandoned
		return
	}
	a.state = failed
	if a.final {
		a.claim()
	} else if a.cancel != nil {
		a.cancel()
	}
}

func (a *attempt) Write(p []byte) (int, error) {
	if a.state == pending {
		a.WriteHeader(http.StatusOK)
	}
	if !a.owns {
		return len(p), nil
	}
	return a.reply.dst.Write(p)
}

// Flush implements http.Flusher so streamed backend responses reach the
// client incrementally instead of buffering at the front-end.
func (a *attempt) Flush() {
	if a.state == pending {
		a.WriteHeader(http.StatusOK)
	}
	if !a.owns {
		return
	}
	if f, ok := a.reply.dst.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the client writer to http.ResponseController.
func (a *attempt) Unwrap() http.ResponseWriter { return a.reply.dst }

// outcome reports how the attempt ended; call it once the proxy has
// returned. An attempt that wrote nothing (a hijacked protocol upgrade)
// takes the reply without writing, leaving the connection to net/http.
func (a *attempt) outcome() outcome {
	if a.state == pending {
		a.state = abandoned
		if a.reply.owner.CompareAndSwap(nil, a) {
			a.state, a.owns = committed, true
		}
	}
	if a.state == abandoned && !a.owns && a.reply.committed() {
		return lost
	}
	return a.state
}
