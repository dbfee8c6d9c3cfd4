package stats

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// testFam declares the series the store tests bump.
var testFam Family

var (
	testA     = testFam.Counter("test.a")
	testB     = testFam.Counter("test.b")
	testLevel = testFam.Gauge("test.level")
)

func TestAddGet(t *testing.T) {
	c := NewCounters(&testFam)
	if got := c.Snapshot()[testA]; got != 0 {
		t.Fatalf("fresh counter = %d, want 0", got)
	}
	c.Add(testA, 5)
	c.Inc(testA)
	c.Add(testLevel, 2)
	c.Add(testLevel, -1)
	if got := c.Snapshot(); got[testA] != 6 || got[testLevel] != 1 {
		t.Fatalf("counters = %v, want %s=6 %s=1", got, testA, testLevel)
	}
}

// TestCountersDeclaredZero: a fresh store lists every series its families
// declare, at 0, and nothing else.
func TestCountersDeclaredZero(t *testing.T) {
	var other Family
	extra := other.Counter("other.x")
	want := map[string]int64{testA: 0, testB: 0, testLevel: 0, extra: 0}
	if got := NewCounters(&testFam, &other).Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh snapshot = %v, want %v", got, want)
	}
}

// TestCountersUndeclaredPanics: a name no family declared is a programming
// error, caught at its first bump.
func TestCountersUndeclaredPanics(t *testing.T) {
	c := NewCounters(&testFam)
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "test.undeclared") {
			t.Fatalf("recovered %v, want a panic naming the series", r)
		}
	}()
	c.Inc("test.undeclared")
}

// TestMax: a Block counter only ever rises under Max.
func TestMax(t *testing.T) {
	var b Block
	b.Max(IdxQueueMaxOccupancy, 10)
	b.Max(IdxQueueMaxOccupancy, 3)
	if got := b.Get(QueueMaxOccupancy); got != 10 {
		t.Fatalf("max = %d, want 10", got)
	}
	b.Max(IdxQueueMaxOccupancy, 12)
	if got := b.Get(QueueMaxOccupancy); got != 12 {
		t.Fatalf("max = %d, want 12", got)
	}
}

func TestSnapshotIsolated(t *testing.T) {
	c := NewCounters(&testFam)
	c.Inc(testA)
	snap := c.Snapshot()
	c.Inc(testA)
	if snap[testA] != 1 {
		t.Fatalf("snapshot mutated: %d", snap[testA])
	}
}

// TestReset: a reset Block holds no counter, not even a zero one.
func TestReset(t *testing.T) {
	var b Block
	b.Inc(IdxMemReads)
	b.Add(IdxMemWrites, 0)
	b.Reset()
	if snap := b.Snapshot(); len(snap) != 0 {
		t.Fatalf("reset left counters: %v", snap)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(0, 0) != 0 {
		t.Error("Ratio(0,0) should be 0")
	}
	if got := Ratio(1, 3); got != 0.25 {
		t.Errorf("Ratio(1,3) = %v, want 0.25", got)
	}
	if got := Ratio(3, 0); got != 1 {
		t.Errorf("Ratio(3,0) = %v, want 1", got)
	}
}

func TestRatioBounds(t *testing.T) {
	prop := func(a, b uint16) bool {
		r := Ratio(int64(a), int64(b))
		return r >= 0 && r <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestConcurrentAdd bumps one store from many goroutines; under -race it
// is also the proof that Add and Inc need no lock.
func TestConcurrentAdd(t *testing.T) {
	c := NewCounters(&testFam)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc(testA)
			}
		}()
	}
	wg.Wait()
	if got := c.Snapshot()[testA]; got != 8000 {
		t.Fatalf("concurrent adds = %d, want 8000", got)
	}
}

// TestSnapshotConcurrent takes snapshots while writers are adding: a
// counter only ever incremented never reads lower than it did in an
// earlier snapshot. Each writer bumps both counters once before the
// snapshots start, so the writers are running while they are taken and
// the final snapshot holds at least one bump per writer.
func TestSnapshotConcurrent(t *testing.T) {
	const writers = 4
	c := NewCounters(&testFam)
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			c.Inc(testA)
			c.Inc(testB)
			started.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc(testA)
					c.Inc(testB)
				}
			}
		}()
	}
	started.Wait()
	var lastA int64
	for i := 0; i < 200; i++ {
		snap := c.Snapshot()
		if snap[testA] < lastA {
			t.Fatalf("snapshot went backwards: %d < %d", snap[testA], lastA)
		}
		lastA = snap[testA]
	}
	close(stop)
	wg.Wait()
	if final := c.Snapshot(); final[testA] < lastA || final[testB] < writers {
		t.Fatalf("final snapshot %v behind the last read %d", final, lastA)
	}
}
