package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"olapdim/internal/faults"
)

// poolSize resolves the Options.Parallelism knob: 0 means GOMAXPROCS, and
// a Tracer forces sequential execution since tracers need not be safe for
// concurrent use.
func poolSize(opts Options) int {
	if opts.Tracer != nil {
		return 1
	}
	if opts.Parallelism > 0 {
		return opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// runPool is the batch-surface fan-out harness: it sizes the worker pool
// from opts, applies fault injection at the pool.task site, and contains
// panics — a task that panics (a poisoned input, an injected fault) is
// converted to an *InternalError that cancels the remaining work and
// propagates, instead of killing the process. All core batch surfaces
// (matrix, minimal sources, category sweeps, lint) fan out through here.
func runPool(ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) error) error {
	po := opts.Pool
	var started atomic.Int64
	if po != nil {
		po.BatchStart(n)
		// An early abort leaves unstarted tasks behind; reconcile so queue
		// gauges derived from BatchStart/TaskStart cannot drift.
		defer func() { po.BatchDone(n - int(started.Load())) }()
	}
	return forEachLimit(ctx, n, poolSize(opts), func(ctx context.Context, i int) (err error) {
		if po != nil {
			started.Add(1)
			po.TaskStart()
			start := time.Now()
			// Registered before recoverAsInternal so it runs after it and
			// observes the recovered error of a panicking task.
			defer func() { po.TaskDone(time.Since(start), err) }()
		}
		defer recoverAsInternal(&err)
		if err := opts.Faults.Hit(faults.SitePoolTask); err != nil {
			return err
		}
		return fn(ctx, i)
	})
}

// forEachLimit runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines, in the style of errgroup: the first error cancels the
// remaining work and is returned. fn must write its result into
// caller-owned, index-disjoint storage. With workers <= 1 the loop runs
// serially on the calling goroutine.
func forEachLimit(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := fn(ctx, i); err != nil {
					errOnce.Do(func() { firstErr = err })
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// Workers may have stopped because the parent context was canceled.
	return ctx.Err()
}
