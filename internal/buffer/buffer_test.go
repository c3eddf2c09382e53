package buffer

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
	"dtnsim/internal/sim"
)

func msg(t *testing.T, id string, size int64, prio message.Priority, quality float64, created time.Duration) *message.Message {
	t.Helper()
	m, err := message.New(ident.MessageID(id), 1, ident.RoleOperator, created, size, prio, quality)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Error("zero capacity must fail")
	}
	s, err := New(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.policy.Name() != "drop-oldest" {
		t.Errorf("default policy = %s", s.policy.Name())
	}
}

func TestAddGetRemove(t *testing.T) {
	s, _ := New(1000, DropOldest{})
	m := msg(t, "a", 100, message.PriorityHigh, 0.5, 0)
	if err := s.Add(m); err != nil {
		t.Fatal(err)
	}
	if !s.Has("a") || s.Get("a") != m || s.Len() != 1 || s.Used() != 100 || s.Free() != 900 {
		t.Error("store state wrong after Add")
	}
	if err := s.Add(m); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate add error = %v", err)
	}
	if !s.Remove("a") {
		t.Error("Remove returned false")
	}
	if s.Remove("a") {
		t.Error("second Remove returned true")
	}
	if s.Used() != 0 || s.Len() != 0 {
		t.Error("store not empty after Remove")
	}
}

func TestAddTooLarge(t *testing.T) {
	s, _ := New(100, nil)
	if err := s.Add(msg(t, "big", 200, message.PriorityHigh, 0.5, 0)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("error = %v, want ErrTooLarge", err)
	}
}

func TestEvictionDropOldest(t *testing.T) {
	s, _ := New(300, DropOldest{})
	s.Add(msg(t, "old", 100, message.PriorityHigh, 0.9, 1*time.Second))
	s.Add(msg(t, "mid", 100, message.PriorityHigh, 0.9, 2*time.Second))
	s.Add(msg(t, "new", 100, message.PriorityHigh, 0.9, 3*time.Second))
	if err := s.Add(msg(t, "incoming", 150, message.PriorityLow, 0.1, 4*time.Second)); err != nil {
		t.Fatal(err)
	}
	if s.Has("old") || s.Has("mid") {
		t.Error("oldest messages should have been evicted")
	}
	if !s.Has("new") || !s.Has("incoming") {
		t.Error("wrong victims evicted")
	}
	if s.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", s.Dropped())
	}
}

func TestEvictionDropLowPriority(t *testing.T) {
	s, _ := New(300, DropLowPriority{})
	s.Add(msg(t, "high", 100, message.PriorityHigh, 0.9, 1*time.Second))
	s.Add(msg(t, "low", 100, message.PriorityLow, 0.9, 2*time.Second))
	s.Add(msg(t, "med", 100, message.PriorityMedium, 0.9, 3*time.Second))
	if err := s.Add(msg(t, "incoming", 100, message.PriorityHigh, 0.5, 4*time.Second)); err != nil {
		t.Fatal(err)
	}
	if s.Has("low") {
		t.Error("low priority message should be the victim")
	}
	if !s.Has("high") || !s.Has("med") || !s.Has("incoming") {
		t.Error("wrong victims evicted")
	}
}

func TestDropLowPriorityTiebreaksOnQuality(t *testing.T) {
	s, _ := New(200, DropLowPriority{})
	s.Add(msg(t, "lowq", 100, message.PriorityLow, 0.2, 1*time.Second))
	s.Add(msg(t, "highq", 100, message.PriorityLow, 0.9, 2*time.Second))
	if err := s.Add(msg(t, "incoming", 100, message.PriorityHigh, 0.5, 3*time.Second)); err != nil {
		t.Fatal(err)
	}
	if s.Has("lowq") || !s.Has("highq") {
		t.Error("same priority: lower quality should be evicted first")
	}
}

func TestMessagesInsertionOrder(t *testing.T) {
	s, _ := New(1000, nil)
	for _, id := range []string{"c", "a", "b"} {
		s.Add(msg(t, id, 10, message.PriorityHigh, 0.5, 0))
	}
	got := s.Messages()
	if len(got) != 3 || got[0].ID != "c" || got[1].ID != "a" || got[2].ID != "b" {
		t.Errorf("order = %v", []ident.MessageID{got[0].ID, got[1].ID, got[2].ID})
	}
}

func TestExpireAt(t *testing.T) {
	s, _ := New(1000, nil)
	m1 := msg(t, "short", 10, message.PriorityHigh, 0.5, 0)
	m1.TTL = time.Minute
	m2 := msg(t, "long", 10, message.PriorityHigh, 0.5, 0)
	m2.TTL = time.Hour
	m3 := msg(t, "forever", 10, message.PriorityHigh, 0.5, 0)
	s.Add(m1)
	s.Add(m2)
	s.Add(m3)
	if n := s.ExpireAt(30 * time.Minute); n != 1 {
		t.Errorf("expired %d, want 1", n)
	}
	if s.Has("short") || !s.Has("long") || !s.Has("forever") {
		t.Error("wrong messages expired")
	}
}

// TestUsedMatchesContents is the accounting invariant: Used always equals
// the sum of resident message sizes, through any sequence of adds, removes,
// and evictions.
func TestUsedMatchesContents(t *testing.T) {
	rng := sim.NewRNG(13)
	check := func(seed int64) bool {
		local := sim.NewRNG(seed)
		s, _ := New(1000, DropOldest{})
		for op := 0; op < 200; op++ {
			id := ident.MessageID("m" + string(rune('a'+local.Intn(26))))
			if local.Coin(0.7) {
				size := int64(local.Intn(400) + 1)
				m, err := message.New(id, 1, ident.RoleOperator,
					time.Duration(op)*time.Second, size, message.PriorityHigh, 0.5)
				if err != nil {
					return false
				}
				s.Add(m)
			} else {
				s.Remove(id)
			}
			var sum int64
			for _, m := range s.Messages() {
				sum += m.Size
			}
			if sum != s.Used() || s.Used() > s.Capacity() {
				return false
			}
		}
		return true
	}
	for i := 0; i < 20; i++ {
		if !check(rng.Int63()) {
			t.Fatal("accounting invariant violated")
		}
	}
}

// TestEvictionAlwaysFrees checks by property that an Add of a fitting
// message never fails, regardless of prior contents.
func TestEvictionAlwaysFrees(t *testing.T) {
	check := func(seed int64) bool {
		local := sim.NewRNG(seed)
		s, _ := New(500, DropLowPriority{})
		for op := 0; op < 100; op++ {
			size := int64(local.Intn(500) + 1)
			prio := message.Priority(local.Intn(3) + 1)
			m, err := message.New(ident.MessageID(ident.NewMessageID(1, op)), 1, ident.RoleOperator,
				time.Duration(op)*time.Second, size, prio, 0.5)
			if err != nil {
				return false
			}
			if err := s.Add(m); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestByKeyTracksResidents drives a small store through random adds,
// removals, capacity evictions and TTL expiry, checking after every step
// that ByKey holds exactly the residents, strictly ordered by
// compareResidents, each under its ID's key.
func TestByKeyTracksResidents(t *testing.T) {
	rng := sim.NewRNG(4)
	s, err := New(1000, DropOldest{})
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 2000; op++ {
		id := ident.MessageID(fmt.Sprintf("m%d", rng.Intn(40)))
		switch {
		case rng.Coin(0.6):
			m := msg(t, string(id), int64(50+rng.Intn(200)), message.PriorityHigh, 0.5, time.Duration(op)*time.Second)
			if rng.Coin(0.3) {
				m.TTL = time.Duration(rng.Intn(30)) * time.Second
			}
			if err := s.Add(m); err != nil && !errors.Is(err, ErrDuplicate) {
				t.Fatal(err)
			}
		case rng.Coin(0.5):
			s.Remove(id)
		default:
			s.ExpireAt(time.Duration(op) * time.Second)
		}
		idx := s.ByKey()
		if len(idx) != s.Len() {
			t.Fatalf("op %d: index holds %d entries, store %d", op, len(idx), s.Len())
		}
		for i, r := range idx {
			if s.Get(r.Msg.ID) != r.Msg || r.Key != keyOf(r.Msg.ID) {
				t.Fatalf("op %d: index entry %d (%s) is not a resident under its key", op, i, r.Msg.ID)
			}
			if i > 0 && compareResidents(idx[i-1], r) >= 0 {
				t.Fatalf("op %d: index out of order at %d", op, i)
			}
		}
	}
}
