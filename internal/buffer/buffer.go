// Package buffer implements the per-node message store with a byte-capacity
// limit (Table 5.1: 250 MB) and pluggable eviction. Relays in the paper have
// "a message buffer with a fixed size"; when a new message does not fit, the
// eviction policy decides which resident messages to drop.
package buffer

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
)

// ErrTooLarge is returned when a message is bigger than the whole buffer.
var ErrTooLarge = errors.New("buffer: message exceeds buffer capacity")

// ErrDuplicate is returned when the buffer already holds the message ID; the
// paper's UUID "makes sure that the message does not get duplicated in any
// device".
var ErrDuplicate = errors.New("buffer: duplicate message")

// Policy selects eviction victims. Given the resident messages (in insertion
// order) and the number of bytes that must be freed, it returns the IDs to
// evict. Implementations must return enough bytes or the insert fails.
type Policy interface {
	// Victims picks messages to evict to free at least need bytes.
	Victims(resident []*message.Message, need int64) []ident.MessageID
	// Name identifies the policy in reports.
	Name() string
}

// Store is a capacity-bounded message buffer. It is not safe for concurrent
// use; the simulation engine is single-threaded per run.
type Store struct {
	capacity int64
	used     int64
	policy   Policy
	byID     map[ident.MessageID]*message.Message
	order    []*message.Message // insertion order, for deterministic iteration
	byKey    []Resident         // the residents ordered by (Key, ID); see ByKey
	dropped  int                // messages evicted before delivery

	// expiry is a deadline-ordered index over TTL-carrying residents, so
	// NextExpiry and ExpireAt cost O(log n) instead of a full-buffer scan.
	// Entries are invalidated lazily: a removed message's entry is skipped
	// when it surfaces at the head.
	expiry    expiryHeap
	expirySeq uint64
}

// Resident is one entry of a store's key-ordered resident index. Key is a
// hash of the message ID, so every copy of a message has the same key in
// every store.
type Resident struct {
	Key uint64
	Msg *message.Message
}

// keyOf hashes a message ID (64-bit FNV-1a).
func keyOf(id ident.MessageID) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

// Less orders residents by key, then message ID; residents of one store
// are distinct under it, and equal entries of two stores are copies of one
// message.
func (r Resident) Less(o Resident) bool {
	return r.Key < o.Key || r.Key == o.Key && r.Msg.ID < o.Msg.ID
}

// compareResidents is Resident.Less as a three-way comparison.
func compareResidents(x, y Resident) int {
	switch {
	case x.Less(y):
		return -1
	case y.Less(x):
		return 1
	}
	return 0
}

// ByKey returns the residents ordered by (Key, ID), the order in which two
// stores' resident sets merge in one linear pass (membership, not
// transmission, order). The returned slice is the store's internal index,
// invalidated by the next Add or Remove; callers must not mutate it.
func (s *Store) ByKey() []Resident { return s.byKey }

// expiryEntry is one (deadline, message) pair in the expiry index. seq makes
// same-deadline expiry follow insertion order, keeping removal deterministic.
type expiryEntry struct {
	at  time.Duration
	seq uint64
	id  ident.MessageID
}

// expiryHeap is a hand-rolled binary min-heap; container/heap would box an
// entry on every Push/Pop, and inserts are per-message. Entries carry unique
// (at, seq) keys, so pop order is fully determined by less.
type expiryHeap []expiryEntry

func (h expiryHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h expiryHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h expiryHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pushExpiry adds one entry to the deadline index.
func (s *Store) pushExpiry(e expiryEntry) {
	s.expiry = append(s.expiry, e)
	s.expiry.up(len(s.expiry) - 1)
}

// popExpiry removes the earliest entry from the deadline index.
func (s *Store) popExpiry() {
	h := s.expiry
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	s.expiry = h[:n]
	if n > 0 {
		s.expiry.down(0)
	}
}

// New creates a store with the given byte capacity and eviction policy. A
// nil policy defaults to DropOldest.
func New(capacity int64, policy Policy) (*Store, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("buffer: capacity must be positive, got %d", capacity)
	}
	if policy == nil {
		policy = DropOldest{}
	}
	return &Store{
		capacity: capacity,
		policy:   policy,
		byID:     make(map[ident.MessageID]*message.Message),
	}, nil
}

// Capacity returns the byte capacity.
func (s *Store) Capacity() int64 { return s.capacity }

// Used returns the bytes currently occupied.
func (s *Store) Used() int64 { return s.used }

// Free returns the bytes available without eviction.
func (s *Store) Free() int64 { return s.capacity - s.used }

// Len returns the number of resident messages.
func (s *Store) Len() int { return len(s.byID) }

// Dropped returns how many messages have been evicted so far.
func (s *Store) Dropped() int { return s.dropped }

// Has reports whether the message ID is resident.
func (s *Store) Has(id ident.MessageID) bool {
	_, ok := s.byID[id]
	return ok
}

// Get returns a resident message, or nil.
func (s *Store) Get(id ident.MessageID) *message.Message { return s.byID[id] }

// Add inserts a message, evicting per policy if needed. It returns
// ErrDuplicate if the ID is resident and ErrTooLarge if the message can
// never fit.
func (s *Store) Add(m *message.Message) error {
	if m.Size > s.capacity {
		return ErrTooLarge
	}
	if s.Has(m.ID) {
		return ErrDuplicate
	}
	if need := m.Size - s.Free(); need > 0 {
		victims := s.policy.Victims(s.Messages(), need)
		for _, id := range victims {
			if s.remove(id) {
				s.dropped++
			}
		}
		if s.Free() < m.Size {
			return fmt.Errorf("buffer: policy %s freed too little for %d bytes", s.policy.Name(), m.Size)
		}
	}
	s.byID[m.ID] = m
	s.order = append(s.order, m)
	r := Resident{Key: keyOf(m.ID), Msg: m}
	i, _ := slices.BinarySearchFunc(s.byKey, r, compareResidents)
	s.byKey = slices.Insert(s.byKey, i, r)
	s.used += m.Size
	if m.TTL > 0 {
		s.expirySeq++
		s.pushExpiry(expiryEntry{at: m.CreatedAt + m.TTL, seq: s.expirySeq, id: m.ID})
	}
	return nil
}

// Remove deletes a message (e.g. after TTL expiry). It reports whether the
// message was resident.
func (s *Store) Remove(id ident.MessageID) bool { return s.remove(id) }

func (s *Store) remove(id ident.MessageID) bool {
	m, ok := s.byID[id]
	if !ok {
		return false
	}
	delete(s.byID, id)
	s.used -= m.Size
	for i, om := range s.order {
		if om == m {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if i, ok := slices.BinarySearchFunc(s.byKey, Resident{Key: keyOf(id), Msg: m}, compareResidents); ok {
		s.byKey = slices.Delete(s.byKey, i, i+1)
	}
	return true
}

// Messages returns the resident messages in insertion order. The returned
// slice is the store's internal list and is invalidated by the next Add or
// Remove; callers must not mutate it. (Routing scans every buffer on every
// exchange round, so handing out copies dominated early profiles.)
func (s *Store) Messages() []*message.Message {
	return s.order
}

// staleHead reports whether the expiry index's head entry no longer matches
// a resident message (removed, or replaced under the same ID with a
// different deadline) and should be discarded.
func (s *Store) staleHead() bool {
	head := s.expiry[0]
	m, ok := s.byID[head.id]
	return !ok || m.TTL <= 0 || m.CreatedAt+m.TTL != head.at
}

// NextExpiry returns the earliest TTL deadline among resident messages; ok
// is false when no resident message carries a TTL. Stale index entries are
// discarded on the way, so the cost is amortised O(log n).
func (s *Store) NextExpiry() (at time.Duration, ok bool) {
	for len(s.expiry) > 0 {
		if s.staleHead() {
			s.popExpiry()
			continue
		}
		return s.expiry[0].at, true
	}
	return 0, false
}

// ExpireAt removes all messages whose TTL has lapsed at virtual time now and
// returns how many were removed. Only lapsed messages are visited: the
// deadline index replaces the historical full-buffer scan.
func (s *Store) ExpireAt(now time.Duration) int {
	expired := 0
	for len(s.expiry) > 0 {
		if s.staleHead() {
			s.popExpiry()
			continue
		}
		head := s.expiry[0]
		if !s.byID[head.id].Expired(now) {
			break
		}
		s.popExpiry()
		s.remove(head.id)
		expired++
	}
	return expired
}

// DropOldest evicts the earliest-created messages first (the ONE simulator's
// default FIFO behaviour).
type DropOldest struct{}

var _ Policy = DropOldest{}

// Name implements Policy.
func (DropOldest) Name() string { return "drop-oldest" }

// Victims implements Policy.
func (DropOldest) Victims(resident []*message.Message, need int64) []ident.MessageID {
	ordered := make([]*message.Message, len(resident))
	copy(ordered, resident)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].CreatedAt < ordered[j].CreatedAt
	})
	return takeUntil(ordered, need)
}

// DropLowPriority evicts low-priority (and, within a priority level, oldest)
// messages first. The paper's scheme "prioritizes messages based on the
// quality as well as the assigned priority" (Paper I §5.F); this policy is
// the buffer-side half of that preference and is the default for the
// incentive scheme.
type DropLowPriority struct{}

var _ Policy = DropLowPriority{}

// Name implements Policy.
func (DropLowPriority) Name() string { return "drop-low-priority" }

// Victims implements Policy.
func (DropLowPriority) Victims(resident []*message.Message, need int64) []ident.MessageID {
	ordered := make([]*message.Message, len(resident))
	copy(ordered, resident)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Priority != ordered[j].Priority {
			// Numerically higher Priority value = less important.
			return ordered[i].Priority > ordered[j].Priority
		}
		if ordered[i].Quality != ordered[j].Quality {
			return ordered[i].Quality < ordered[j].Quality
		}
		return ordered[i].CreatedAt < ordered[j].CreatedAt
	})
	return takeUntil(ordered, need)
}

func takeUntil(ordered []*message.Message, need int64) []ident.MessageID {
	var out []ident.MessageID
	var freed int64
	for _, m := range ordered {
		if freed >= need {
			break
		}
		out = append(out, m.ID)
		freed += m.Size
	}
	return out
}
