package dist

import (
	"context"
	"sync"
)

// eventLog is one campaign's append-only progress history with
// broadcast: the coordinator appends a line per state change and per
// merged record, SSE subscribers replay the history and then block for
// new lines. A subscriber that connects after the campaign finished still
// sees the full history plus the final event, so `submit; sleep; watch
// events` races are benign.
type eventLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	lines  []string
	closed bool
	final  string // terminal state announced by Close
}

func newEventLog() *eventLog {
	l := &eventLog{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Append adds one event line.
func (l *eventLog) Append(line string) {
	l.mu.Lock()
	l.lines = append(l.lines, line)
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Close marks the log terminal with a final state; idempotent. A closed
// log reopened by a retry (resubmitted failed campaign) starts appending
// again via Reopen.
func (l *eventLog) Close(final string) {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		l.final = final
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Reopen clears the terminal mark so a retried campaign streams again.
func (l *eventLog) Reopen() {
	l.mu.Lock()
	l.closed = false
	l.final = ""
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Len returns the number of event lines so far.
func (l *eventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines)
}

// next blocks until line i exists or the log is closed (whichever first),
// or ctx is done. It returns the line (ok=true) if available, and whether
// the log is closed with no line at i (the subscriber should emit the
// final event and stop).
func (l *eventLog) next(ctx context.Context, i int) (line string, ok bool, final string, done bool) {
	// A ctx watcher nudges the cond so a subscriber blocked in Wait
	// observes cancellation; stop() tears the watcher down on return.
	watchCtx, stop := context.WithCancel(ctx)
	defer stop()
	go func() {
		<-watchCtx.Done()
		// Taking the mutex orders this broadcast after the subscriber's
		// ctx check: either the subscriber is already parked in Wait (the
		// broadcast wakes it) or it will re-check ctx before parking.
		l.mu.Lock()
		l.mu.Unlock()
		l.cond.Broadcast()
	}()

	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if i < len(l.lines) {
			return l.lines[i], true, "", false
		}
		if l.closed {
			return "", false, l.final, true
		}
		if ctx.Err() != nil {
			return "", false, "", true
		}
		l.cond.Wait()
	}
}
