package world

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dtnsim/internal/ident"
)

// Grid is a spatial hash over the simulation area. Cell size equals the
// query radius, so a radius query needs to inspect at most the 3×3 block of
// cells around the query point. Positions are updated in place each step and
// neighbor queries are read-only, which keeps the per-step cost linear in
// the number of nodes plus the number of nearby pairs.
//
// Node state is kept in dense slices indexed directly by NodeID: the engine
// mints IDs as 0..n-1 (see ident.NodeID), so pos/cellOf lookups — two per
// node per tick on the mobility path — are array loads instead of the map
// probes that previously dominated the step profile. Sparse IDs work but
// cost O(maxID) memory.
type Grid struct {
	origin Point // world coordinate of the grid's lower corner
	bounds Rect  // extent of the gridded rectangle, relative to origin
	cell   float64
	cols   int
	rows   int
	cells  [][]ident.NodeID
	pos    []Point // indexed by NodeID; valid only where cellOf >= 0
	cellOf []int32 // indexed by NodeID; -1 = absent
	count  int
}

// NewGrid builds a grid over bounds with the given cell size (normally the
// radio range). Cell size must be positive.
func NewGrid(bounds Rect, cellSize float64) (*Grid, error) {
	return NewGridAt(Point{}, bounds, cellSize)
}

// NewGridAt builds a grid over the rectangle [origin, origin+bounds] — a
// region shard of a larger world keeps its grid over its own ghost-inflated
// tile instead of the whole area, so cell storage scales with the tile, not
// the world. Positions passed to and returned from the grid stay in world
// coordinates; only cell addressing is origin-relative. NewGrid is the
// origin-zero special case.
func NewGridAt(origin Point, bounds Rect, cellSize float64) (*Grid, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("world: cell size must be positive, got %v", cellSize)
	}
	if bounds.Width <= 0 || bounds.Height <= 0 {
		return nil, fmt.Errorf("world: bounds must have positive area, got %v×%v", bounds.Width, bounds.Height)
	}
	cols := int(math.Ceil(bounds.Width/cellSize)) + 1
	rows := int(math.Ceil(bounds.Height/cellSize)) + 1
	return &Grid{
		origin: origin,
		bounds: bounds,
		cell:   cellSize,
		cols:   cols,
		rows:   rows,
		cells:  make([][]ident.NodeID, cols*rows),
	}, nil
}

// Rows returns the number of cell rows; PairsRows shards scan row bands of
// [0, Rows()).
func (g *Grid) Rows() int { return g.rows }

// clamp pulls a world-coordinate point into the gridded rectangle.
func (g *Grid) clamp(p Point) Point {
	l := g.bounds.Clamp(Point{X: p.X - g.origin.X, Y: p.Y - g.origin.Y})
	return Point{X: l.X + g.origin.X, Y: l.Y + g.origin.Y}
}

func (g *Grid) cellIndex(p Point) int {
	cx := int((p.X - g.origin.X) / g.cell)
	cy := int((p.Y - g.origin.Y) / g.cell)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx
}

// ensure grows the dense node slices to cover id.
func (g *Grid) ensure(id ident.NodeID) {
	for int(id) >= len(g.cellOf) {
		g.cellOf = append(g.cellOf, -1)
		g.pos = append(g.pos, Point{})
	}
}

// Upsert places or moves a node. Positions outside the bounds are clamped,
// matching the mobility models which never leave the area. IDs must be
// non-negative.
func (g *Grid) Upsert(id ident.NodeID, p Point) {
	p = g.clamp(p)
	g.ensure(id)
	newCell := int32(g.cellIndex(p))
	if old := g.cellOf[id]; old >= 0 {
		if old == newCell {
			g.pos[id] = p
			return
		}
		g.removeFromCell(id, old)
	} else {
		g.count++
	}
	g.cells[newCell] = append(g.cells[newCell], id)
	g.cellOf[id] = newCell
	g.pos[id] = p
}

// Remove deletes a node from the grid. Removing an absent node is a no-op.
func (g *Grid) Remove(id ident.NodeID) {
	if int(id) < 0 || int(id) >= len(g.cellOf) || g.cellOf[id] < 0 {
		return
	}
	g.removeFromCell(id, g.cellOf[id])
	g.cellOf[id] = -1
	g.count--
}

func (g *Grid) removeFromCell(id ident.NodeID, cell int32) {
	members := g.cells[cell]
	for i, m := range members {
		if m == id {
			members[i] = members[len(members)-1]
			g.cells[cell] = members[:len(members)-1]
			return
		}
	}
}

// Position returns a node's current position; ok is false for unknown nodes.
func (g *Grid) Position(id ident.NodeID) (Point, bool) {
	if int(id) < 0 || int(id) >= len(g.cellOf) || g.cellOf[id] < 0 {
		return Point{}, false
	}
	return g.pos[id], true
}

// Len returns the number of nodes currently in the grid.
func (g *Grid) Len() int { return g.count }

// Within appends to dst all nodes other than id within radius of id's
// position, sorted by NodeID for determinism, and returns the extended
// slice. Radius must not exceed the grid's cell size times 1 (the 3×3 block
// guarantee); larger radii fall back to widening the scanned block.
func (g *Grid) Within(dst []ident.NodeID, id ident.NodeID, radius float64) []ident.NodeID {
	center, ok := g.Position(id)
	if !ok {
		return dst
	}
	start := len(dst)
	dst = g.withinPoint(dst, center, radius, id)
	sortIDs(dst[start:])
	return dst
}

// WithinPoint appends all nodes within radius of p, sorted by NodeID.
func (g *Grid) WithinPoint(dst []ident.NodeID, p Point, radius float64) []ident.NodeID {
	start := len(dst)
	dst = g.withinPoint(dst, p, radius, ident.Nobody)
	sortIDs(dst[start:])
	return dst
}

func (g *Grid) withinPoint(dst []ident.NodeID, center Point, radius float64, exclude ident.NodeID) []ident.NodeID {
	if radius <= 0 {
		return dst
	}
	reach := int(math.Ceil(radius / g.cell))
	cx := int((center.X - g.origin.X) / g.cell)
	cy := int((center.Y - g.origin.Y) / g.cell)
	r2 := radius * radius
	for dy := -reach; dy <= reach; dy++ {
		y := cy + dy
		if y < 0 || y >= g.rows {
			continue
		}
		for dx := -reach; dx <= reach; dx++ {
			x := cx + dx
			if x < 0 || x >= g.cols {
				continue
			}
			for _, m := range g.cells[y*g.cols+x] {
				if m == exclude {
					continue
				}
				if g.pos[m].Dist2(center) <= r2 {
					dst = append(dst, m)
				}
			}
		}
	}
	return dst
}

// Pairs appends every unordered pair of distinct nodes within radius of each
// other, as (lo, hi) with lo < hi, sorted lexicographically. This is the
// contact-detection primitive: the engine diffs consecutive Pairs results to
// derive contact-up and contact-down events.
func (g *Grid) Pairs(dst []Pair, radius float64) []Pair {
	start := len(dst)
	dst = g.PairsRows(dst, radius, 0, g.rows)
	SortPairs(dst[start:])
	return dst
}

// PairsRows appends, unsorted, every in-range pair whose anchor cell — the
// lexicographically lower of the two cells, the one the sequential scan
// credits the pair to — lies in cell rows [rowLo, rowHi). The union of
// PairsRows over a partition of [0, Rows()) is exactly the Pairs multiset
// (sort the concatenation with SortPairs to reproduce Pairs byte for byte),
// which is what lets the engine shard contact detection across workers:
// shards only read the grid, so any row partition may be scanned
// concurrently, each shard appending into its own buffer.
func (g *Grid) PairsRows(dst []Pair, radius float64, rowLo, rowHi int) []Pair {
	if radius <= 0 {
		return dst
	}
	if rowLo < 0 {
		rowLo = 0
	}
	if rowHi > g.rows {
		rowHi = g.rows
	}
	r2 := radius * radius
	reach := int(math.Ceil(radius / g.cell))
	for cy := rowLo; cy < rowHi; cy++ {
		for cx := 0; cx < g.cols; cx++ {
			members := g.cells[cy*g.cols+cx]
			if len(members) == 0 {
				continue
			}
			// Pairs within the same cell.
			for i := 0; i < len(members); i++ {
				for j := i + 1; j < len(members); j++ {
					a, b := members[i], members[j]
					if g.pos[a].Dist2(g.pos[b]) <= r2 {
						dst = append(dst, orderedPair(a, b))
					}
				}
			}
			// Pairs against forward-neighbor cells only, so each cell pair
			// is visited once. The neighbor may lie outside this shard's
			// rows; that is a read, and the pair is still credited here.
			for dy := 0; dy <= reach; dy++ {
				y := cy + dy
				if y >= g.rows {
					break
				}
				minDX := -reach
				if dy == 0 {
					minDX = 1
				}
				for dx := minDX; dx <= reach; dx++ {
					x := cx + dx
					if x < 0 || x >= g.cols {
						continue
					}
					other := g.cells[y*g.cols+x]
					for _, a := range members {
						pa := g.pos[a]
						for _, b := range other {
							if pa.Dist2(g.pos[b]) <= r2 {
								dst = append(dst, orderedPair(a, b))
							}
						}
					}
				}
			}
		}
	}
	return dst
}

// Candidates appends every unordered pair within radius+skin of each other,
// as (lo, hi) with lo < hi, sorted lexicographically. This is the kinetic
// contact-detection primitive: the result is a conservative superset of
// Pairs(radius) that stays a superset while no node has moved more than
// skin/2 since the scan, so the engine can filter it with exact distance
// checks for many ticks instead of rescanning the grid (see DESIGN.md
// "Kinetic contact detection"). A negative skin is treated as zero, making
// Candidates(r, 0) ≡ Pairs(r).
func (g *Grid) Candidates(dst []Pair, radius, skin float64) []Pair {
	if skin < 0 {
		skin = 0
	}
	return g.Pairs(dst, radius+skin)
}

// CandidatesRows is to Candidates what PairsRows is to Pairs: it appends,
// unsorted, every candidate pair anchored in cell rows [rowLo, rowHi), and
// the union over a row partition sorted with SortPairs reproduces Candidates
// byte for byte. The widened radius may span more than the 3×3 cell block;
// the scan widens its forward reach accordingly.
func (g *Grid) CandidatesRows(dst []Pair, radius, skin float64, rowLo, rowHi int) []Pair {
	if skin < 0 {
		skin = 0
	}
	return g.PairsRows(dst, radius+skin, rowLo, rowHi)
}

// InRange reports whether nodes a and b are both present and within radius
// of each other — the exact per-candidate check of kinetic contact
// detection. It is read-only and safe to call concurrently with other
// reads.
func (g *Grid) InRange(a, b ident.NodeID, radius float64) bool {
	if int(a) < 0 || int(a) >= len(g.cellOf) || g.cellOf[a] < 0 {
		return false
	}
	if int(b) < 0 || int(b) >= len(g.cellOf) || g.cellOf[b] < 0 {
		return false
	}
	return g.pos[a].Dist2(g.pos[b]) <= radius*radius
}

// Pair is an unordered node pair with Lo < Hi.
type Pair struct {
	Lo, Hi ident.NodeID
}

// Less reports whether p precedes q in the canonical lexicographic pair
// order — the order Pairs returns and the engine's sorted-merge contact
// diffing walks.
func (p Pair) Less(q Pair) bool {
	if p.Lo != q.Lo {
		return p.Lo < q.Lo
	}
	return p.Hi < q.Hi
}

func orderedPair(a, b ident.NodeID) Pair {
	if a < b {
		return Pair{Lo: a, Hi: b}
	}
	return Pair{Lo: b, Hi: a}
}

func sortIDs(ids []ident.NodeID) { slices.Sort(ids) }

// SortPairs orders pairs lexicographically — the canonical order Pairs
// returns and the engine's contact diffing relies on.
func SortPairs(ps []Pair) { slices.SortFunc(ps, comparePairs) }

// comparePairs is the canonical pair order as a three-way comparison.
func comparePairs(p, q Pair) int {
	if p.Lo != q.Lo {
		return cmp.Compare(p.Lo, q.Lo)
	}
	return cmp.Compare(p.Hi, q.Hi)
}
