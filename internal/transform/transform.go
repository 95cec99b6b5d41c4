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
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"ursa/internal/dag"
	"ursa/internal/ir"
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

// Apply mutates the graph. It returns an error (leaving the graph in a
// valid, possibly partially-extended state only on the error paths noted
// below) if the candidate is inapplicable: an edge would create a cycle, or
// a spill would rewire no uses. Callers that must not observe partial
// application should apply to a clone first — the driver's
// tentative-apply-and-score loop does exactly that.
func (c *Candidate) Apply(g *dag.Graph) error {
	for _, e := range c.Edges {
		if g.HasEdge(e[0], e[1]) {
			continue
		}
		if g.HasPath(e[1], e[0]) {
			return fmt.Errorf("transform %s: edge %d->%d would create a cycle", c.Kind, e[0], e[1])
		}
		g.AddEdge(e[0], e[1], dag.EdgeSeq)
	}
	if c.Spill != nil {
		if err := applySpill(g, c.Spill, nil); err != nil {
			return err
		}
	}
	if c.CopySpill != nil {
		if err := applyCopySpill(g, c.CopySpill, nil); err != nil {
			return err
		}
	}
	return nil
}

// An UndoLog records everything one tentative application changed, so the
// change can be reverted in place. One log lives per evaluator worker and
// is reused across candidates; its slices keep their capacity, so the
// steady-state apply/score/revert cycle allocates nothing.
type UndoLog struct {
	g       *dag.Graph
	nodes   int // node count at ApplyLog time
	regs    int // Func.NumRegs at ApplyLog time
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

// Added returns the sequence edges the application actually added (edges
// already present were skipped). The slice aliases the log and is valid
// until the next ApplyLog. For spill and copy-spill candidates it also
// contains the store/load wiring, so incremental closure updates must not
// be derived from it — the evaluator re-measures spilled graphs from
// scratch.
func (u *UndoLog) Added() [][2]int { return u.added }

// Revert undoes the recorded application: operand and opcode rewrites are
// restored, removed edges re-added with their original kinds, added edges
// removed, and any nodes and registers the application created are
// truncated away.
// Successor/predecessor list order may differ from the pre-apply state
// (re-added edges append at the tail); every analysis the evaluator runs is
// order-independent, and the committed graph never goes through a revert.
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

// addEdge adds the edge (a, b), which must not exist yet, recording it
// when the log is non-nil (a nil log is the commit path).
func (u *UndoLog) addEdge(g *dag.Graph, a, b int, kind dag.EdgeKind) {
	g.AddEdge(a, b, kind)
	if u != nil {
		u.added = append(u.added, [2]int{a, b})
	}
}

// removeEdge removes the edge (a, b) if present, recording it with its
// kind when the log is non-nil.
func (u *UndoLog) removeEdge(g *dag.Graph, a, b int) {
	kind, ok := g.EdgeKindOf(a, b)
	if !ok {
		return
	}
	if u != nil {
		u.removed = append(u.removed, removedEdge{a: a, b: b, kind: kind})
	}
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

// ApplyLog tentatively applies the candidate — sequencing edges, spill and
// copy-spill payloads alike — recording every change in the reusable log.
// On error the partial application is already reverted and the graph is
// back in its prior state. On success the caller scores the transformed
// graph and then calls log.Revert.
func (c *Candidate) ApplyLog(g *dag.Graph, log *UndoLog) error {
	log.reset(g)
	for _, e := range c.Edges {
		if g.HasEdge(e[0], e[1]) {
			continue
		}
		if g.HasPath(e[1], e[0]) {
			log.Revert()
			return fmt.Errorf("transform %s: edge %d->%d would create a cycle", c.Kind, e[0], e[1])
		}
		g.AddEdge(e[0], e[1], dag.EdgeSeq)
		log.added = append(log.added, e)
	}
	if c.Spill != nil {
		if err := applySpill(g, c.Spill, log); err != nil {
			log.Revert()
			return err
		}
	}
	if c.CopySpill != nil {
		if err := applyCopySpill(g, c.CopySpill, log); err != nil {
			log.Revert()
			return err
		}
	}
	return nil
}

// SeqOnly reports whether the candidate is a pure sequentialization — it
// only adds sequence edges, with no spill or copy-spill payload. Only such
// candidates can be remeasured incrementally from a closure delta.
func (c *Candidate) SeqOnly() bool { return c.Spill == nil && c.CopySpill == nil }

// Key returns a canonical identity for the transformation's effect: the
// kind, the edge set in sorted order, and the spill target. Candidates with
// equal keys transform the graph identically even when their generators and
// Notes differ; the driver uses this to measure each distinct effect once
// per iteration. Key allocates its result; the evaluator's hot path uses
// FixedKey with a reused buffer instead.
func (c *Candidate) Key() string { return string(c.AppendKey(nil)) }

// A CandKey is a fixed-size comparable digest of a candidate's canonical
// encoding (AppendKey), usable directly as a map key. Candidates with equal
// effect always collide; distinct effects are separated by the full 256-bit
// digest.
type CandKey [sha256.Size]byte

// FixedKey returns the candidate's fixed-size key. buf is an optional
// scratch buffer reused for the canonical encoding; the (possibly grown)
// buffer is returned so callers can thread one allocation through a whole
// dedupe pass.
func (c *Candidate) FixedKey(buf []byte) (CandKey, []byte) {
	buf = c.AppendKey(buf[:0])
	return CandKey(sha256.Sum256(buf)), buf
}

// AppendKey appends the candidate's canonical binary encoding to dst and
// returns the extended slice. The encoding is what Key and FixedKey are
// built from: kind, edge count, edges sorted lexicographically, and the
// spill payload (register, definition, sorted barriers, sorted pre-roots)
// when present. Candidates with up to 32 edges encode without allocating
// beyond dst's growth.
func (c *Candidate) AppendKey(dst []byte) []byte {
	dst = append(dst, byte(c.Kind))
	var stack [32][2]int
	edges := stack[:0]
	if len(c.Edges) > len(stack) {
		edges = make([][2]int, 0, len(c.Edges))
	}
	edges = append(edges, c.Edges...)
	slices.SortFunc(edges, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	dst = binary.AppendUvarint(dst, uint64(len(edges)))
	for _, e := range edges {
		dst = binary.AppendUvarint(dst, uint64(e[0]))
		dst = binary.AppendUvarint(dst, uint64(e[1]))
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
// delayable uses. With log == nil (the commit path) the graph is mutated
// for good; with a log every change is recorded so the caller can revert —
// the store/load wiring always touches the freshly added nodes, so every
// AddEdge here is a genuinely new edge and is logged unconditionally.
func applySpill(g *dag.Graph, sp *SpillSpec, log *UndoLog) error {
	f := g.Func
	name := f.NameOf(sp.Reg)
	class := f.ClassOf(sp.Reg)
	slot := "spill." + name

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
		if b == ld || g.HasPath(ld, b) {
			continue
		}
		log.addEdge(g, b, ld, dag.EdgeSeq)
	}
	// The store happens before SD1 starts, freeing the register. Roots
	// that are ancestors of the definition cannot be sequenced after it.
	for _, r := range sp.PreRoots {
		if r == st || g.HasPath(r, sp.Def) || g.HasPath(r, st) {
			continue
		}
		log.addEdge(g, st, r, dag.EdgeSeq)
	}

	// Rewire every use that can legally wait for the reload.
	rewired := 0
	for _, u := range uses {
		if u == st || g.HasPath(u, ld) {
			continue
		}
		in := g.Nodes[u].Instr
		for i, a := range in.Args {
			if a == sp.Reg {
				if log != nil {
					log.patches = append(log.patches, argPatch{in: in, slot: i, old: a})
				}
				in.Args[i] = nv
			}
		}
		if in.Index == sp.Reg {
			if log != nil {
				log.patches = append(log.patches, argPatch{in: in, slot: -1, old: sp.Reg})
			}
			in.Index = nv
		}
		log.removeEdge(g, sp.Def, u)
		log.addEdge(g, ld, u, dag.EdgeData)
		rewired++
	}
	if rewired == 0 {
		if log != nil {
			// The caller reverts everything; no patch-up needed.
			return fmt.Errorf("transform spill: no use of %s can be delayed", name)
		}
		// Nothing could be delayed: undo the dangling store/load by wiring
		// them straight to the leaf so the graph stays valid, and report
		// failure so the driver discards this candidate.
		g.AddEdge(ld, g.Leaf, dag.EdgeSeq)
		return fmt.Errorf("transform spill: no use of %s can be delayed", name)
	}
	// Keep the hammock property for the new nodes.
	if len(g.Succs(ld)) == 0 {
		log.addEdge(g, ld, g.Leaf, dag.EdgeSeq)
	}
	return nil
}

// applyCopySpill reroutes an inter-cluster copy through memory: a spill
// store of the source value is inserted on the producing cluster, and the
// copy instruction itself is rewritten in place into the reload — same
// destination register, same cluster, so every consumer edge survives
// untouched. The one data edge from the source's definition to the copy is
// replaced by def -> store -> load wiring. With a log every change — the
// removed edge, the added edges and the opcode rewrite — is recorded so
// the caller can revert; the store node is new, so every AddEdge here adds
// a genuinely new edge.
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
	slot := "spill." + f.NameOf(src)
	srcCluster := g.Nodes[def].Instr.Cluster

	st := g.AddInstr(&ir.Instr{Op: ir.SpillStore, Args: []ir.VReg{src}, Sym: slot, Cluster: srcCluster})
	if log != nil {
		log.rewrite = opRewrite{in: in, op: in.Op, args: in.Args, sym: in.Sym}
	}
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
