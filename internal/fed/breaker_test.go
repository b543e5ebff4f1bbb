package fed

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBreakerTrialAndClose: once an open breaker's cooldown has passed,
// exactly one of many concurrent callers claims the readmission probe;
// live successes never close it, only a passing probe does.
func TestBreakerTrialAndClose(t *testing.T) {
	b := newBreaker(2, 20*time.Millisecond)
	b.failure()
	b.success()
	b.failure()
	if !b.closed() {
		t.Fatal("a success between two failures did not reset the count")
	}
	b.failure()
	if b.closed() {
		t.Fatal("two consecutive failures left the breaker closed")
	}
	if b.trial() {
		t.Fatal("trial claimed before the cooldown passed")
	}
	time.Sleep(25 * time.Millisecond)
	var wg sync.WaitGroup
	var claims atomic.Int64
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.trial() {
				claims.Add(1)
			}
			b.success()
		}()
	}
	wg.Wait()
	if claims.Load() != 1 {
		t.Fatalf("%d callers claimed the trial, want 1", claims.Load())
	}
	if b.closed() {
		t.Fatal("live successes closed an open breaker")
	}
	b.pass()
	if !b.closed() {
		t.Fatal("a passing probe left the breaker open")
	}
	b.trip()
	if b.closed() {
		t.Fatal("a wrong identity left the breaker closed")
	}
}
