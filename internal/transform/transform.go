// Package transform implements URSA's resource-requirement reduction
// transformations (paper §4): functional-unit sequentialization, register
// sequentialization, and spill insertion. All three operate on the same
// dependence DAG, so the driver can apply them in any order or in an
// integrated manner (§5).
//
// Candidate generation is heuristic, exactly as in the paper; the driver
// tentatively applies each candidate, re-measures the transformed DAG, and
// commits the candidate with the best combination of requirement reduction
// and critical-path impact.
package transform

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ursa/internal/dag"
	"ursa/internal/ir"
	"ursa/internal/order"
)

// Kind identifies a transformation family.
type Kind uint8

// Transformation kinds.
const (
	FUSequence  Kind = iota // §4.1: sequence independent instructions
	RegSequence             // §4.2: stage the hammock to shorten live ranges
	Spill                   // §4.3: store a value, reload when pressure drops
	CopySpill               // clustered VLIW: reroute an inter-cluster copy through memory
	NumKinds
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case FUSequence:
		return "fu-seq"
	case RegSequence:
		return "reg-seq"
	case Spill:
		return "spill"
	case CopySpill:
		return "copy-spill"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// A Candidate is one concrete applicable transformation.
type Candidate struct {
	Kind      Kind
	Edges     [][2]int       // sequentialization edges to add (from, to)
	Spill     *SpillSpec     // spill payload, for Kind == Spill
	CopySpill *CopySpillSpec // copy-spill payload, for Kind == CopySpill
	Note      string         // human-readable description for traces
}

// SpillSpec describes a spill-insertion transformation: the value defined at
// Def is stored right after its definition, the store is sequenced before
// the PreRoots (SD1's roots, so the register is free while SD1 runs), and
// the reload is sequenced after the Barrier nodes (SD1's leaves). Uses of
// the value that can legally wait are rewired to the reloaded copy.
type SpillSpec struct {
	Reg      ir.VReg
	Def      int
	Barrier  []int
	PreRoots []int
}

// CopySpillSpec describes a copy-spill transformation (clustered machines):
// the inter-cluster copy at node Copy is rerouted through memory — a spill
// store of the source value on the producing cluster plus a reload into the
// copy's destination register on the consuming cluster — freeing the
// transfer-bus slot the copy occupied. Because URSA measures the bus, the
// per-cluster issue slots, and the destination register file through the
// same reduction loop, the copy-vs-spill decision falls out of measured
// excess rather than a fixed heuristic.
type CopySpillSpec struct {
	Copy int // node id of the inter-cluster copy
}

// String renders the candidate for traces.
func (c *Candidate) String() string {
	if c.Note != "" {
		return fmt.Sprintf("%s(%s)", c.Kind, c.Note)
	}
	return c.Kind.String()
}

// An UndoLog records everything one application changed, so the change
// can be reverted in place. One log lives per evaluator worker and is
// reused across candidates; its slices keep their capacity, so the
// steady-state apply/score/revert cycle allocates nothing.
type UndoLog struct {
	g       *dag.Graph
	nodes   int // node count at Apply time
	regs    int // Func.NumRegs at Apply time
	added   [][2]int
	removed []removedEdge
	patches []argPatch
	rewrite opRewrite
}

type removedEdge struct {
	a, b int
	kind dag.EdgeKind
}

// argPatch records one operand rewrite: slot >= 0 indexes Instr.Args,
// slot == -1 means the Index register.
type argPatch struct {
	in   *ir.Instr
	slot int
	old  ir.VReg
}

// opRewrite records the one in-place opcode rewrite a copy-spill makes:
// the instruction and its prior Op, Args and Sym. in == nil means none.
type opRewrite struct {
	in   *ir.Instr
	op   ir.Op
	args []ir.VReg
	sym  string
}

// Revert undoes the recorded application: operand and opcode rewrites are
// restored, removed edges re-added with their original kinds, added edges
// removed, and any nodes and registers the application created are
// truncated away.
// Successor/predecessor list order may differ from the pre-apply state
// (re-added edges append at the tail); every analysis the evaluator runs is
// order-independent, and a committed graph is reverted only when its
// commit is refused, which ends the run.
func (u *UndoLog) Revert() {
	g := u.g
	for i := len(u.patches) - 1; i >= 0; i-- {
		p := u.patches[i]
		if p.slot < 0 {
			p.in.Index = p.old
		} else {
			p.in.Args[p.slot] = p.old
		}
	}
	if r := u.rewrite; r.in != nil {
		r.in.Op, r.in.Args, r.in.Sym = r.op, r.args, r.sym
	}
	for i := len(u.added) - 1; i >= 0; i-- {
		g.RemoveEdge(u.added[i][0], u.added[i][1])
	}
	for i := len(u.removed) - 1; i >= 0; i-- {
		r := u.removed[i]
		g.AddEdge(r.a, r.b, r.kind)
	}
	g.TruncateNodes(u.nodes)
	g.Func.TruncateRegs(u.regs)
}

// addEdge adds the edge (a, b), which must not exist yet, and records it.
func (u *UndoLog) addEdge(g *dag.Graph, a, b int, kind dag.EdgeKind) {
	g.AddEdge(a, b, kind)
	u.added = append(u.added, [2]int{a, b})
}

// removeEdge removes the edge (a, b) if present, recording it with its
// kind.
func (u *UndoLog) removeEdge(g *dag.Graph, a, b int) {
	kind, ok := g.EdgeKindOf(a, b)
	if !ok {
		return
	}
	u.removed = append(u.removed, removedEdge{a: a, b: b, kind: kind})
	g.RemoveEdge(a, b)
}

// reset points the log at a fresh application on g.
func (u *UndoLog) reset(g *dag.Graph) {
	u.g = g
	u.nodes = g.NumNodes()
	u.regs = g.Func.NumRegs()
	u.added = u.added[:0]
	u.removed = u.removed[:0]
	u.patches = u.patches[:0]
	u.rewrite = opRewrite{}
}

// Apply applies the candidate to g — sequencing edges, spill and
// copy-spill payloads alike — and records every change in log (reset
// first), so log.Revert undoes it. reach must be g's transitive closure,
// and Apply keeps it so: afterwards it is the transformed graph's closure.
// Each sequencing edge is tested against it — an edge whose head already
// reaches its tail, or a self-edge, closes a cycle and refuses the
// candidate — and added to it with AddClosureEdge. A payload asks its
// reachability questions of the closure before it; reach then grows over
// the new nodes and takes the payload's added edges the same way. That is
// exact: a payload removes only def->use and def->copy edges, each
// replaced by a path through the new store and reload, so no pair is lost.
//
// A refused candidate returns an error with the application already
// reverted: g and its Func are exactly as before, while reach may hold
// the refused candidate's earlier edges and must be discarded.
func (c *Candidate) Apply(g *dag.Graph, reach *order.Relation, log *UndoLog) error {
	log.reset(g)
	if err := c.apply(g, reach, log); err != nil {
		log.Revert()
		return err
	}
	return nil
}

func (c *Candidate) apply(g *dag.Graph, reach *order.Relation, log *UndoLog) error {
	for _, e := range c.Edges {
		a, b := e[0], e[1]
		if g.HasEdge(a, b) {
			continue
		}
		if a == b || reach.Has(b, a) {
			return fmt.Errorf("transform %s: edge %d->%d would create a cycle", c.Kind, a, b)
		}
		log.addEdge(g, a, b, dag.EdgeSeq)
		reach.AddClosureEdge(a, b)
	}
	if c.SeqOnly() {
		return nil
	}
	seq := len(log.added)
	if c.Spill != nil {
		if err := applySpill(g, reach, c.Spill, log); err != nil {
			return err
		}
	}
	if c.CopySpill != nil {
		if err := applyCopySpill(g, c.CopySpill, log); err != nil {
			return err
		}
	}
	reach.Grow(g.NumNodes())
	for _, e := range log.added[seq:] {
		reach.AddClosureEdge(e[0], e[1])
	}
	return nil
}

// SeqOnly reports whether the candidate is a pure sequentialization — it
// only adds sequence edges, with no spill or copy-spill payload.
func (c *Candidate) SeqOnly() bool { return c.Spill == nil && c.CopySpill == nil }

// AppendKey appends the candidate's canonical binary encoding to dst and
// returns the extended slice: kind, edge count, edges sorted
// lexicographically, and the spill payload (register, definition, sorted
// barriers, sorted pre-roots) or the copy-spill's copy node when present.
// Candidates with equal encodings transform the graph identically even
// when their generators and Notes differ; the evaluator uses this to
// measure each distinct effect once per iteration. Candidates with up to
// 32 edges encode without allocating beyond dst's growth.
func (c *Candidate) AppendKey(dst []byte) []byte {
	dst = append(dst, byte(c.Kind))
	// Node ids are non-negative and below 2³², so packing an edge as
	// from<<32|to makes numeric order the lexicographic edge order.
	var stack [32]uint64
	edges := stack[:0]
	if len(c.Edges) > len(stack) {
		edges = make([]uint64, 0, len(c.Edges))
	}
	for _, e := range c.Edges {
		edges = append(edges, uint64(e[0])<<32|uint64(e[1]))
	}
	slices.Sort(edges)
	dst = binary.AppendUvarint(dst, uint64(len(edges)))
	for _, e := range edges {
		dst = binary.AppendUvarint(dst, e>>32)
		dst = binary.AppendUvarint(dst, e&(1<<32-1))
	}
	if sp := c.Spill; sp != nil {
		dst = append(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(sp.Reg))
		dst = binary.AppendUvarint(dst, uint64(sp.Def))
		dst = appendSortedInts(dst, sp.Barrier)
		dst = appendSortedInts(dst, sp.PreRoots)
	}
	if sp := c.CopySpill; sp != nil {
		dst = append(dst, 2)
		dst = binary.AppendUvarint(dst, uint64(sp.Copy))
	}
	return dst
}

// appendSortedInts appends a length-prefixed sorted copy of xs.
func appendSortedInts(dst []byte, xs []int) []byte {
	var stack [32]int
	s := stack[:0]
	if len(xs) > len(stack) {
		s = make([]int, 0, len(xs))
	}
	s = append(s, xs...)
	slices.Sort(s)
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, x := range s {
		dst = binary.AppendUvarint(dst, uint64(x))
	}
	return dst
}

// applySpill inserts the spill's store/load pair, wires it, and rewires the
// delayable uses, recording every change in log. reach is the closure of g
// before the pair is added; every reachability question here reduces to
// it. The new load ld has no successors while the barriers are wired, so
// no barrier can be its descendant. The new store's only predecessor is
// the definition, so a pre-root reaches the store exactly when it is or
// reaches the definition. A use of the value descends from the
// definition, so no path from it runs through the definition, the store,
// or a def->use edge the rewiring removes: it reaches the load exactly
// when it is or reaches a barrier.
func applySpill(g *dag.Graph, reach *order.Relation, sp *SpillSpec, log *UndoLog) error {
	f := g.Func
	name := f.NameOf(sp.Reg)
	class := f.ClassOf(sp.Reg)
	slot := ir.SpillSlot("", name)

	if g.LiveOut[sp.Reg] {
		return fmt.Errorf("transform spill: %s is live-out", name)
	}
	defNode := g.Nodes[sp.Def]
	if defNode.Instr == nil || defNode.Instr.Dst != sp.Reg {
		return fmt.Errorf("transform spill: node %d does not define %s", sp.Def, name)
	}

	uses := g.UseNodes(sp.Reg)
	if len(uses) == 0 {
		return fmt.Errorf("transform spill: %s has no uses", name)
	}

	// Insert the store and load nodes, on the value's home cluster: the
	// store must read the value where it lives, and the reload re-produces
	// it there so surviving same-cluster readers stay legal.
	st := g.AddInstr(&ir.Instr{Op: ir.SpillStore, Args: []ir.VReg{sp.Reg}, Sym: slot, Cluster: defNode.Instr.Cluster})
	nv := f.NewReg(name+".r", class)
	ld := g.AddInstr(&ir.Instr{Op: ir.SpillLoad, Dst: nv, Sym: slot, Cluster: defNode.Instr.Cluster})
	log.addEdge(g, sp.Def, st, dag.EdgeData)
	log.addEdge(g, st, ld, dag.EdgeMem)

	// The reload waits for SD1 to finish.
	for _, b := range sp.Barrier {
		log.addEdge(g, b, ld, dag.EdgeSeq)
	}
	// The store happens before SD1 starts, freeing the register. Roots
	// that are ancestors of the definition cannot be sequenced after it.
	for _, r := range sp.PreRoots {
		if r == sp.Def || reach.Has(r, sp.Def) {
			continue
		}
		log.addEdge(g, st, r, dag.EdgeSeq)
	}

	// Rewire every use that can legally wait for the reload.
	rewired := 0
	for _, u := range uses {
		if reachesAny(reach, u, sp.Barrier) {
			continue
		}
		in := g.Nodes[u].Instr
		for i, a := range in.Args {
			if a == sp.Reg {
				log.patches = append(log.patches, argPatch{in: in, slot: i, old: a})
				in.Args[i] = nv
			}
		}
		if in.Index == sp.Reg {
			log.patches = append(log.patches, argPatch{in: in, slot: -1, old: sp.Reg})
			in.Index = nv
		}
		log.removeEdge(g, sp.Def, u)
		log.addEdge(g, ld, u, dag.EdgeData)
		rewired++
	}
	if rewired == 0 {
		return fmt.Errorf("transform spill: no use of %s can be delayed", name)
	}
	return nil
}

// reachesAny reports whether u is one of the nodes or reaches one of them.
func reachesAny(reach *order.Relation, u int, nodes []int) bool {
	for _, b := range nodes {
		if u == b || reach.Has(u, b) {
			return true
		}
	}
	return false
}

// applyCopySpill reroutes an inter-cluster copy through memory: a spill
// store of the source value is inserted on the producing cluster, and the
// copy instruction itself is rewritten in place into the reload — same
// destination register, same cluster, so every consumer edge survives
// untouched. The one data edge from the source's definition to the copy is
// replaced by def -> store -> load wiring. Every change — the removed
// edge, the added edges and the opcode rewrite — is recorded in log; the
// store node is new, so every AddEdge here adds a genuinely new edge.
func applyCopySpill(g *dag.Graph, sp *CopySpillSpec, log *UndoLog) error {
	if sp.Copy < 0 || sp.Copy >= g.NumNodes() {
		return fmt.Errorf("transform copy-spill: node %d out of range", sp.Copy)
	}
	in := g.Nodes[sp.Copy].Instr
	if in == nil || !in.IsCopy() {
		return fmt.Errorf("transform copy-spill: node %d is not an inter-cluster copy", sp.Copy)
	}
	f := g.Func
	src := in.Args[0]
	def := g.DefNode(src)
	if def < 0 {
		return fmt.Errorf("transform copy-spill: copy source %s is not defined in the region", f.NameOf(src))
	}
	slot := ir.SpillSlot("", f.NameOf(src))
	srcCluster := g.Nodes[def].Instr.Cluster

	st := g.AddInstr(&ir.Instr{Op: ir.SpillStore, Args: []ir.VReg{src}, Sym: slot, Cluster: srcCluster})
	log.rewrite = opRewrite{in: in, op: in.Op, args: in.Args, sym: in.Sym}
	in.Op = ir.SpillLoad
	in.Args = nil
	in.Sym = slot

	log.removeEdge(g, def, sp.Copy)
	log.addEdge(g, def, st, dag.EdgeData)
	log.addEdge(g, st, sp.Copy, dag.EdgeMem)
	if len(g.Succs(sp.Copy)) == 0 {
		log.addEdge(g, sp.Copy, g.Leaf, dag.EdgeSeq)
	}
	return nil
}
