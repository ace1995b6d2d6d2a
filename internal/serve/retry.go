package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"finwl/internal/check"
)

// transientErr reports whether a failure is worth re-attempting: the
// iterative caps (ErrNotConverged) and guarded NaN/∞ escapes
// (ErrNumeric); ErrInvalidModel and ErrSingular are final.
func transientErr(err error) bool {
	return errors.Is(err, check.ErrNotConverged) || errors.Is(err, check.ErrNumeric)
}

// lockedRand is a mutex-guarded jitter source shared by all requests.
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{r: rand.New(rand.NewSource(seed))}
}

// jitter returns a uniform duration in [0, d).
func (l *lockedRand) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Duration(l.r.Int63n(int64(d)))
}

// withRetry runs fn up to 1+retries times, sleeping base·2^attempt
// plus up to 100% jitter between attempts, but only for transient
// failures and only while the context has room for the sleep. The
// returned error is the last attempt's. onRetry is invoked before
// each re-attempt (stats hook).
func withRetry(ctx context.Context, retries int, base time.Duration, jit *lockedRand, onRetry func(), fn func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = fn()
		if err == nil || !transientErr(err) || attempt >= retries {
			return err
		}
		backoff := base << attempt
		sleep := backoff + jit.jitter(backoff)
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < sleep {
			// Not enough deadline left to wait out the backoff; give
			// the remaining time to the degradation ladder instead.
			return err
		}
		if onRetry != nil {
			onRetry()
		}
		t := time.NewTimer(sleep)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return check.Canceled(ctx)
		}
	}
}
