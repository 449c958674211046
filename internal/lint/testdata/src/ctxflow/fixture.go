// Package ctxflow is an areslint fixture: context threading, next to
// goroutines whose lifetimes goleak judges.
package ctxflow

import (
	"context"
	"sync"
)

func process(ctx context.Context) error {
	return ctx.Err()
}

// Bad: detaches the callee from the caller's cancellation.
func detached(ctx context.Context) error {
	return process(context.Background())
}

// Good: threads the received context.
func threaded(ctx context.Context) error {
	return process(ctx)
}

// Bad: fire-and-forget goroutine — nothing can cancel or await it.
func fireAndForget() {
	go func() {
		println("orphan")
	}()
}

// Good: awaited through a WaitGroup.
func awaited() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}

// Good: joined through a result channel.
func joined() error {
	errc := make(chan error, 1)
	go func() {
		errc <- nil
	}()
	return <-errc
}

// Good: cancellable through the context it observes.
func cancellable(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}
