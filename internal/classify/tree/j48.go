package tree

import (
	"fmt"
	"math"
	"strings"

	"jepo/internal/classify"
	"jepo/internal/dataset"
)

// J48 is WEKA's C4.5 implementation: gain-ratio splits, multiway nominal
// branches, binary numeric thresholds, and pessimistic (confidence-based)
// subtree-replacement pruning with the stock confidence factor 0.25.
type J48 struct {
	// ConfidenceFactor for pessimistic pruning (default 0.25).
	ConfidenceFactor float64
	// MinLeaf is the minimum instances per leaf (WEKA -M, default 2).
	MinLeaf int
	// Unpruned disables pruning (WEKA -U).
	Unpruned bool

	opts       classify.Options
	root       *node
	attrNames  []string
	classNames []string
}

// NewJ48 builds a J48 with WEKA's default parameters.
func NewJ48(opts classify.Options) *J48 {
	return &J48{ConfidenceFactor: 0.25, MinLeaf: 2, opts: opts}
}

// Name implements Classifier.
func (c *J48) Name() string { return "J48" }

// Train implements Classifier.
func (c *J48) Train(d *dataset.Dataset) error {
	if d.NumInstances() == 0 {
		return fmt.Errorf("j48: empty training set")
	}
	b := &builder{cfg: builderConfig{
		gainRatio: true,
		minLeaf:   c.MinLeaf,
		fp:        c.opts.FP,
	}, d: d}
	rows := allRows(d)
	c.root = b.grow(rows, 0)
	if !c.Unpruned {
		prune(c.root, zScore(c.ConfidenceFactor))
	}
	return nil
}

// Predict implements Classifier.
func (c *J48) Predict(row []float64) int { return c.root.predict(row) }

// NumNodes reports the pruned tree size.
func (c *J48) NumNodes() int { return c.root.countNodes() }

// prune applies C4.5's subtree replacement: a subtree is replaced by a leaf
// when the leaf's pessimistic error estimate does not exceed the subtree's.
// z is the normal deviate of the confidence factor, computed once per tree.
func prune(nd *node, z float64) {
	if nd.isLeaf() {
		return
	}
	for _, ch := range nd.children {
		if ch != nil {
			prune(ch, z)
		}
	}
	subtreeErr := 0.0
	for _, ch := range nd.children {
		if ch != nil {
			subtreeErr += pessimisticError(ch, z)
		}
	}
	leafErr := errUpper(nd.n, nd.n-maxOf(nd.dist), z)
	if leafErr <= subtreeErr+0.1 {
		nd.attr = -1
		nd.children = nil
	}
}

// pessimisticError sums the leaf error bounds of a subtree.
func pessimisticError(nd *node, z float64) float64 {
	if nd.isLeaf() {
		return errUpper(nd.n, nd.n-maxOf(nd.dist), z)
	}
	s := 0.0
	for _, ch := range nd.children {
		if ch != nil {
			s += pessimisticError(ch, z)
		}
	}
	return s
}

// errUpper is C4.5's upper confidence bound on the error count of a leaf
// with n instances and e errors (normal approximation to the binomial), at
// the normal deviate z.
func errUpper(n, e, z float64) float64 {
	if n == 0 {
		return 0
	}
	f := e / n
	z2 := z * z
	num := f + z2/(2*n) + z*math.Sqrt(f/n-f*f/n+z2/(4*n*n))
	den := 1 + z2/n
	return n * (num / den)
}

// zScore inverts the one-sided standard normal CDF for the C4.5 confidence
// levels of interest (coarse bisection on erfc is plenty here).
func zScore(cf float64) float64 {
	lo, hi := 0.0, 6.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		// upper tail P(Z > mid)
		p := 0.5 * math.Erfc(mid/math.Sqrt2)
		if p > cf {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func maxOf(xs []float64) float64 {
	best := 0.0
	for _, v := range xs {
		if v > best {
			best = v
		}
	}
	return best
}

func allRows(d *dataset.Dataset) []int {
	rows := make([]int, d.NumInstances())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// String renders the pruned tree in WEKA's textual J48 layout, e.g.
//
//	x <= 4.25: lo (12.0)
//	x > 4.25
//	|   hint = a: lo (3.0)
//	|   hint = b: hi (9.0)
//
// attrNames and classNames label the columns; pass nil to use indices.
func (c *J48) String() string {
	if c.root == nil {
		return "J48 (untrained)"
	}
	var sb strings.Builder
	sb.WriteString("J48 pruned tree\n------------------\n")
	c.render(&sb, c.root, 0)
	fmt.Fprintf(&sb, "\nNumber of Nodes  : \t%d\n", c.NumNodes())
	return sb.String()
}

// SetLabels installs attribute and class names for String rendering.
func (c *J48) SetLabels(attrNames, classNames []string) {
	c.attrNames, c.classNames = attrNames, classNames
}

func (c *J48) attrLabel(a int) string {
	if a >= 0 && a < len(c.attrNames) {
		return c.attrNames[a]
	}
	return fmt.Sprintf("attr%d", a)
}

func (c *J48) classLabel(k int) string {
	if k >= 0 && k < len(c.classNames) {
		return c.classNames[k]
	}
	return fmt.Sprintf("class%d", k)
}

func (c *J48) render(sb *strings.Builder, nd *node, depth int) {
	indent := strings.Repeat("|   ", depth)
	leaf := func(n *node) string {
		return fmt.Sprintf("%s (%.1f)", c.classLabel(n.pred), n.n)
	}
	if nd.isLeaf() {
		fmt.Fprintf(sb, "%s: %s\n", indent, leaf(nd))
		return
	}
	if !nd.nominal {
		c.renderBranch(sb, nd.children[0], depth,
			fmt.Sprintf("%s%s <= %.4g", indent, c.attrLabel(nd.attr), nd.threshold), leaf)
		c.renderBranch(sb, nd.children[1], depth,
			fmt.Sprintf("%s%s > %.4g", indent, c.attrLabel(nd.attr), nd.threshold), leaf)
		return
	}
	for v, ch := range nd.children {
		if ch == nil {
			continue
		}
		c.renderBranch(sb, ch, depth,
			fmt.Sprintf("%s%s = %d", indent, c.attrLabel(nd.attr), v), leaf)
	}
}

func (c *J48) renderBranch(sb *strings.Builder, ch *node, depth int, label string, leaf func(*node) string) {
	if ch.isLeaf() {
		fmt.Fprintf(sb, "%s: %s\n", label, leaf(ch))
		return
	}
	fmt.Fprintf(sb, "%s\n", label)
	c.render(sb, ch, depth+1)
}
