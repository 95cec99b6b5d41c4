package dag

import (
	"fmt"
	"strings"
)

// Dot renders the graph in Graphviz DOT format. Data edges are solid,
// memory edges dashed, sequence edges dotted. Edges are listed by source
// node id, each node's in insertion order, so the text is deterministic.
func (g *Graph) Dot(title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", title)
	sb.WriteString("  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, n := range g.Nodes {
		label := n.Name
		if n.Instr != nil {
			label = fmt.Sprintf("%s\\n%s", n.Name, g.Func.InstrString(n.Instr))
		}
		shape := ""
		if n.IsPseudo() {
			shape = ", shape=ellipse"
		}
		fmt.Fprintf(&sb, "  n%d [label=\"%s\"%s];\n", n.ID, label, shape)
	}
	for a, ss := range g.succ {
		for i, b := range ss {
			style := ""
			switch g.kind[a][i] {
			case EdgeMem:
				style = " [style=dashed]"
			case EdgeSeq:
				style = " [style=dotted]"
			}
			fmt.Fprintf(&sb, "  n%d -> n%d%s;\n", a, b, style)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
