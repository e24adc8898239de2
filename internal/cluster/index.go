package cluster

import "protean/internal/rng"

// The replay index answers the built-in policies' questions without
// scanning the fleet. Every question they ask is "which node minimises
// max(v, now), ties to the lowest index" for some per-node value v over
// some set of nodes:
//
//   - least-loaded: v = freeAt over every node (Backlog is
//     max(freeAt, now) − now, so the order is the same);
//   - affinity and weighted-affinity: the same, but over the nodes whose
//     stores hold one particular set of keys — every node of such a group
//     scores the same affinity hits for any job;
//   - the admission defer path: v = completions[len−bound] over every
//     node, since slotFreeAt(now, bound) == max(now, v).
//
// Each set is a treap keyed by node index whose subtrees carry the
// minimum v, so the answer is one O(log n) descent for any now; now is
// not monotone, because a deferral can move the placement instant past
// the next arrival. A node sits in at most three trees (fleet-wide
// freeAt, its group's freeAt, fleet-wide slot), so the index holds
// O(nodes + keys) memory, and after construction no update allocates:
// groups that empty are recycled, and the group list and table are
// sized once for the most groups that can be live.

// maxInt64 is the saturation point of the weighted-affinity score.
const maxInt64 = int64(^uint64(0) >> 1)

// tnode is one node's place in a treap of the forest. Priorities and
// the Zobrist key hashes are fixed SplitMix64 draws; placement never
// depends on their values, only on the sets and orders they maintain.
type tnode struct {
	l, r, p int32 // children and parent, -1 for none
	pri     uint32
	min     uint64 // minimum val over the subtree
}

// forest holds disjoint treaps over node indices, each ordered by node
// index and heap-ordered by a fixed per-node priority. Callers hold the
// roots.
type forest struct {
	val  []uint64
	node []tnode
}

func newForest(val []uint64) forest {
	fo := forest{val: val, node: make([]tnode, len(val))}
	for n := range fo.node {
		fo.node[n] = tnode{l: -1, r: -1, p: -1, pri: uint32(rng.New(int64(n)).Next())}
	}
	return fo
}

// add inserts node n into the tree rooted at *root.
func (fo *forest) add(root *int32, n int32) {
	*root = fo.insert(*root, n)
	fo.node[*root].p = -1
}

// del removes node n from the tree rooted at *root, which becomes -1
// when the tree empties.
func (fo *forest) del(root *int32, n int32) {
	*root = fo.remove(*root, n)
	if *root >= 0 {
		fo.node[*root].p = -1
	}
}

// update refreshes the minima above node n after val[n] changed,
// stopping at the first subtree whose minimum holds.
func (fo *forest) update(n int32) {
	for t := n; t >= 0; t = fo.node[t].p {
		old := fo.node[t].min
		fo.pull(t)
		if fo.node[t].min == old {
			return
		}
	}
}

// best returns the node of nonempty tree t minimising max(val, now),
// lowest index among ties: the leftmost node with val <= max(min, now).
func (fo *forest) best(t int32, now uint64) int {
	return fo.leftmostAtMost(t, max(fo.node[t].min, now))
}

// first returns the lowest index in nonempty tree t.
func (fo *forest) first(t int32) int {
	return fo.leftmostAtMost(t, ^uint64(0))
}

// leftmostAtMost returns the lowest index in t whose val is <= x; the
// tree's minimum must be <= x.
func (fo *forest) leftmostAtMost(t int32, x uint64) int {
	for {
		nd := &fo.node[t]
		switch {
		case nd.l >= 0 && fo.node[nd.l].min <= x:
			t = nd.l
		case fo.val[t] <= x:
			return int(t)
		default:
			t = nd.r
		}
	}
}

// pull recomputes t's subtree minimum from its children.
func (fo *forest) pull(t int32) {
	nd := &fo.node[t]
	m := fo.val[t]
	if nd.l >= 0 && fo.node[nd.l].min < m {
		m = fo.node[nd.l].min
	}
	if nd.r >= 0 && fo.node[nd.r].min < m {
		m = fo.node[nd.r].min
	}
	nd.min = m
}

// link sets t's children (-1 for none) and refreshes t's minimum.
func (fo *forest) link(t, l, r int32) {
	fo.node[t].l, fo.node[t].r = l, r
	if l >= 0 {
		fo.node[l].p = t
	}
	if r >= 0 {
		fo.node[r].p = t
	}
	fo.pull(t)
}

// split divides tree t into the nodes below k and those above it; k
// itself must not be in t. The returned roots' parents are stale.
func (fo *forest) split(t, k int32) (int32, int32) {
	if t < 0 {
		return -1, -1
	}
	if t < k {
		lo, hi := fo.split(fo.node[t].r, k)
		fo.link(t, fo.node[t].l, lo)
		return t, hi
	}
	lo, hi := fo.split(fo.node[t].l, k)
	fo.link(t, hi, fo.node[t].r)
	return lo, t
}

// merge joins trees a and b, every index in a below every index in b.
func (fo *forest) merge(a, b int32) int32 {
	if a < 0 {
		return b
	}
	if b < 0 {
		return a
	}
	if fo.node[a].pri >= fo.node[b].pri {
		fo.link(a, fo.node[a].l, fo.merge(fo.node[a].r, b))
		return a
	}
	fo.link(b, fo.merge(a, fo.node[b].l), fo.node[b].r)
	return b
}

func (fo *forest) insert(t, n int32) int32 {
	if t < 0 || fo.node[n].pri > fo.node[t].pri {
		lo, hi := fo.split(t, n)
		fo.link(n, lo, hi)
		return n
	}
	if n < t {
		fo.link(t, fo.insert(fo.node[t].l, n), fo.node[t].r)
	} else {
		fo.link(t, fo.node[t].l, fo.insert(fo.node[t].r, n))
	}
	return t
}

func (fo *forest) remove(t, n int32) int32 {
	if t == n {
		r := fo.merge(fo.node[t].l, fo.node[t].r)
		fo.node[t].l, fo.node[t].r = -1, -1
		return r
	}
	if n < t {
		fo.link(t, fo.remove(fo.node[t].l, n), fo.node[t].r)
	} else {
		fo.link(t, fo.node[t].l, fo.remove(fo.node[t].r, n))
	}
	return t
}

// group is one set of nodes whose stores hold the same keys.
type group struct {
	root int32  // treap of the members in index.byGroup; -1 when free
	hash uint64 // Zobrist hash of the key set
	live int32  // position in index.live
}

// index is the replay's incremental placement index (see the comment at
// the top of this file). The key interning, key-set hashes and the defer
// path's slot tree are kept from the start; the freeAt trees and groups
// are built on a policy's first query (Fleet.index), so policies that
// never ask — round-robin, random, custom ones — never pay for them.
type index struct {
	nodes []nodeState

	ids   map[Key]int32 // interned keys
	zob   []uint64      // per key id: Zobrist hash
	mark  []uint32      // per key id: scratch stamp
	stamp uint32
	hash  []uint64 // per node: Zobrist hash of its store's keys

	freeAt   []uint64 // per node: cycle its queue drains
	slot     []uint64 // per node: completions[len-bound], 0 while fewer
	slots    forest
	slotRoot int32
	bound    int // admission bound the slot tree tracks; 0 for none

	built        bool
	all, byGroup forest
	allRoot      int32
	group        []int32 // per node: its group
	groups       []group
	free         []int32 // recycled group ids
	live         []int32 // groups with members
	table        []int32 // open-addressed by hash: group ids, -1 empty
}

// init starts the index over a cold fleet: every store empty, every node
// free at cycle 0. jobs supply the key universe; slotBound > 0 tracks
// the defer path's slot values.
func (ix *index) init(nodes []nodeState, jobs []Job, slotBound int) {
	n := len(nodes)
	ix.nodes = nodes
	ix.ids = make(map[Key]int32)
	for i := range jobs {
		for _, c := range jobs[i].Circuits {
			if _, ok := ix.ids[c.Key]; !ok {
				ix.ids[c.Key] = int32(len(ix.ids))
			}
		}
	}
	ix.zob = make([]uint64, len(ix.ids))
	for id := range ix.zob {
		ix.zob[id] = rng.New(^int64(id)).Next()
	}
	ix.mark = make([]uint32, len(ix.ids))
	ix.hash = make([]uint64, n)
	ix.freeAt = make([]uint64, n)
	ix.slotRoot = -1
	if slotBound > 0 {
		ix.bound = slotBound
		ix.slot = make([]uint64, n)
		ix.slots = newForest(ix.slot)
		for i := 0; i < n; i++ {
			ix.slots.add(&ix.slotRoot, int32(i))
		}
	}
}

// build adds the freeAt trees and the store-content groups over the
// fleet as it stands. Live groups hold distinct key sets, so there are
// at most min(nodes, 2^keys) of them, and the group list and table are
// sized for that bound once.
func (ix *index) build() {
	n := len(ix.nodes)
	maxGroups := n
	if len(ix.zob) < 30 && 1<<len(ix.zob) < n {
		maxGroups = 1 << len(ix.zob)
	}
	ix.built = true
	ix.all = newForest(ix.freeAt)
	ix.byGroup = newForest(ix.freeAt)
	ix.allRoot = -1
	ix.group = make([]int32, n)
	ix.groups = make([]group, 0, maxGroups)
	ix.free = make([]int32, 0, maxGroups)
	ix.live = make([]int32, 0, maxGroups)
	size := 2
	for size < 2*maxGroups {
		size *= 2
	}
	ix.table = make([]int32, size)
	for i := range ix.table {
		ix.table[i] = -1
	}
	for i := 0; i < n; i++ {
		ix.all.add(&ix.allRoot, int32(i))
		g := ix.findGroup(i)
		ix.byGroup.add(&ix.groups[g].root, int32(i))
		ix.group[i] = g
	}
}

// index returns the fleet's placement index, building its freeAt trees
// and groups on first use.
func (f *Fleet) index() *index {
	if !f.ix.built {
		f.ix.build()
	}
	return &f.ix
}

// nextStamp starts a new generation of marks.
func (ix *index) nextStamp() uint32 {
	ix.stamp++
	if ix.stamp == 0 {
		clear(ix.mark)
		ix.stamp = 1
	}
	return ix.stamp
}

// markJob marks the job's interned keys and returns how many distinct
// ones it carries; a key no job interned is held by no store.
func (ix *index) markJob(job *Job) int {
	s := ix.nextStamp()
	n := 0
	for _, c := range job.Circuits {
		if id, ok := ix.ids[c.Key]; ok && ix.mark[id] != s {
			ix.mark[id] = s
			n++
		}
	}
	return n
}

// hits counts the keys marked by the last markJob that node n holds:
// AffinityHits for that job.
func (ix *index) hits(n int) int {
	h := 0
	for _, id := range ix.nodes[n].store.keys {
		if ix.mark[id] == ix.stamp {
			h++
		}
	}
	return h
}

// sameKeys reports whether nodes a and b hold the same key set.
func (ix *index) sameKeys(a, b int) bool {
	ka, kb := ix.nodes[a].store.keys, ix.nodes[b].store.keys
	if len(ka) != len(kb) {
		return false
	}
	s := ix.nextStamp()
	for _, id := range ka {
		ix.mark[id] = s
	}
	for _, id := range kb {
		if ix.mark[id] != s {
			return false
		}
	}
	return true
}

// touch looks key k up in node n's store (see store.touch), keeping the
// node's key-set hash current; it reports a hit.
func (ix *index) touch(n int, k Key) bool {
	id := ix.ids[k]
	hit, evicted := ix.nodes[n].store.touch(id)
	if !hit {
		ix.hash[n] ^= ix.zob[id]
		if evicted >= 0 {
			ix.hash[n] ^= ix.zob[evicted]
		}
	}
	return hit
}

// placed records a job placed on node n: its queue now drains at
// freeAt, and regroup says whether its store's key set may have changed.
func (ix *index) placed(n int, freeAt uint64, regroup bool) {
	node := int32(n)
	ix.freeAt[n] = freeAt
	if ix.built {
		ix.all.update(node)
		if g := ix.group[n]; regroup {
			ix.byGroup.del(&ix.groups[g].root, node)
			if ix.groups[g].root < 0 {
				ix.dropGroup(g)
			}
			g = ix.findGroup(n)
			ix.byGroup.add(&ix.groups[g].root, node)
			ix.group[n] = g
		} else {
			ix.byGroup.update(node)
		}
	}
	if ix.bound > 0 {
		if c := ix.nodes[n].completions; len(c) >= ix.bound {
			ix.slot[n] = c[len(c)-ix.bound]
			ix.slots.update(node)
		}
	}
}

// findGroup returns the group holding node n's key set, creating it if
// none does. Node n must not be a member of any group.
func (ix *index) findGroup(n int) int32 {
	h := ix.hash[n]
	mask := uint64(len(ix.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		g := ix.table[i]
		if g < 0 {
			break
		}
		if ix.groups[g].hash == h && ix.sameKeys(n, int(ix.groups[g].root)) {
			return g
		}
	}
	return ix.newGroup(h)
}

// newGroup allocates an empty group for hash h, recycling a freed one,
// and enters it in the table.
func (ix *index) newGroup(h uint64) int32 {
	var g int32
	if k := len(ix.free); k > 0 {
		g, ix.free = ix.free[k-1], ix.free[:k-1]
	} else {
		g = int32(len(ix.groups))
		ix.groups = append(ix.groups, group{})
	}
	ix.groups[g] = group{root: -1, hash: h, live: int32(len(ix.live))}
	ix.live = append(ix.live, g)
	mask := uint64(len(ix.table) - 1)
	i := h & mask
	for ix.table[i] >= 0 {
		i = (i + 1) & mask
	}
	ix.table[i] = g
	return g
}

// dropGroup retires empty group g: out of the live list and the table
// (linear probing with backward-shift deletion), onto the free list.
func (ix *index) dropGroup(g int32) {
	last := ix.live[len(ix.live)-1]
	ix.live[ix.groups[g].live] = last
	ix.groups[last].live = ix.groups[g].live
	ix.live = ix.live[:len(ix.live)-1]

	mask := uint64(len(ix.table) - 1)
	i := ix.groups[g].hash & mask
	for ix.table[i] != g {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ix.table[j] >= 0; j = (j + 1) & mask {
		home := ix.groups[ix.table[j]].hash & mask
		if (j-home)&mask >= (j-i)&mask {
			ix.table[i] = ix.table[j]
			i = j
		}
	}
	ix.table[i] = -1
	ix.free = append(ix.free, g)
}
