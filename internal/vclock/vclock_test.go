package vclock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestScaledNowAdvances(t *testing.T) {
	c := NewScaled(time.Microsecond) // 1 virtual second = 1 µs wall
	t0 := c.Now()
	time.Sleep(2 * time.Millisecond) // ≈2000 virtual seconds
	t1 := c.Now()
	if !t1.After(t0) {
		t.Fatalf("clock did not advance: %v -> %v", t0, t1)
	}
	if got := t1.Sub(t0); got < 500*time.Second {
		t.Fatalf("expected >=500 virtual seconds elapsed, got %v", got)
	}
}

func TestScaledSleepScales(t *testing.T) {
	c := NewScaled(10 * time.Microsecond)
	wall0 := time.Now()
	c.Sleep(1000 * time.Second) // should cost ~10 ms wall
	wall := time.Since(wall0)
	if wall < 5*time.Millisecond {
		t.Fatalf("sleep returned too fast: %v", wall)
	}
	if wall > 500*time.Millisecond {
		t.Fatalf("sleep took too long: %v", wall)
	}
}

func TestScaledSleepNonPositive(t *testing.T) {
	c := NewScaled(time.Millisecond)
	done := make(chan struct{})
	go func() {
		c.Sleep(0)
		c.Sleep(-time.Hour)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("non-positive sleep blocked")
	}
}

func TestScaledAfter(t *testing.T) {
	c := NewScaled(time.Microsecond)
	select {
	case <-c.After(100 * time.Second):
	case <-time.After(time.Second):
		t.Fatal("After never fired")
	}
	// Zero duration fires immediately.
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

// TestSleepOrStop: the wait ends at d or at stop, whichever comes first, and
// a Scaled clock's sub-resolution wait returns at once, as its Sleep does.
func TestSleepOrStop(t *testing.T) {
	stopped := make(chan struct{})
	close(stopped)
	fine := NewScaled(time.Microsecond) // 16 s virtual = 16 µs wall: elided
	if !SleepOrStop(fine, 16*time.Second, nil) {
		t.Fatal("an elided wait reported a stop")
	}
	if SleepOrStop(fine, 16*time.Second, stopped) || SleepOrStop(fine, 0, stopped) {
		t.Fatal("a wait begun after stop reported the full duration")
	}

	slow := NewScaled(time.Millisecond) // 1 h virtual = 3.6 s wall
	stop := make(chan struct{})
	time.AfterFunc(time.Millisecond, func() { close(stop) })
	wall0 := time.Now()
	if SleepOrStop(slow, time.Hour, stop) {
		t.Fatal("a stopped wait reported the full duration")
	}
	if wall := time.Since(wall0); wall > time.Second {
		t.Fatalf("stop took %v to end the wait", wall)
	}

	m := NewManual()
	done := make(chan bool, 1)
	go func() { done <- SleepOrStop(m, 10*time.Second, nil) }()
	for i := 0; i < 1000 && m.Pending() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	m.Advance(10 * time.Second)
	if !<-done {
		t.Fatal("a wait the clock passed reported a stop")
	}
}

func TestNewScaledPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero scale")
		}
	}()
	NewScaled(0)
}

func TestManualSleepBlocksUntilAdvance(t *testing.T) {
	c := NewManual()
	released := make(chan struct{})
	go func() {
		c.Sleep(10 * time.Second)
		close(released)
	}()
	// Give the sleeper a moment to register.
	for i := 0; i < 100 && c.Pending() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if c.Pending() != 1 {
		t.Fatalf("expected 1 pending sleeper, got %d", c.Pending())
	}
	c.Advance(5 * time.Second)
	select {
	case <-released:
		t.Fatal("sleeper released too early")
	case <-time.After(10 * time.Millisecond):
	}
	c.Advance(5 * time.Second)
	select {
	case <-released:
	case <-time.After(time.Second):
		t.Fatal("sleeper never released")
	}
}

func TestManualAdvanceReleasesInDeadlineOrder(t *testing.T) {
	c := NewManual()
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	durations := []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second}
	for i, d := range durations {
		wg.Add(1)
		go func(i int, d time.Duration) {
			defer wg.Done()
			c.Sleep(d)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}(i, d)
	}
	for i := 0; i < 1000 && c.Pending() < 3; i++ {
		time.Sleep(time.Millisecond)
	}
	c.Advance(time.Hour)
	wg.Wait()
	if len(order) != 3 {
		t.Fatalf("expected 3 releases, got %d", len(order))
	}
}

func TestManualNow(t *testing.T) {
	c := NewManual()
	if !c.Now().Equal(Epoch) {
		t.Fatalf("fresh manual clock not at epoch: %v", c.Now())
	}
	c.Advance(90 * time.Minute)
	if got := c.Now().Sub(Epoch); got != 90*time.Minute {
		t.Fatalf("elapsed = %v, want 90m", got)
	}
}

func TestManualAfterZero(t *testing.T) {
	c := NewManual()
	select {
	case ts := <-c.After(0):
		if !ts.Equal(Epoch) {
			t.Fatalf("After(0) delivered %v, want epoch", ts)
		}
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

// Property: advancing a manual clock by a sequence of positive durations
// always yields Now == Epoch + sum(durations).
func TestManualAdvanceSumProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		c := NewManual()
		var total time.Duration
		for _, s := range steps {
			d := time.Duration(s) * time.Millisecond
			total += d
			c.Advance(d)
		}
		return c.Now().Equal(Epoch.Add(total))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
