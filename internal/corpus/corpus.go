// Package corpus generates the WEKA-shaped mini-Java project the JEPO
// pipeline operates on. The real validation refactored WEKA (3,373 classes);
// since WEKA itself is Java, this reproduction generates a corpus with the
// same *shape*: a shared weka.core-style library of several hundred classes
// across ~40 packages plus per-classifier dependency closures sized to the
// paper's Table II, seeded with the energy-inefficient idioms of Table I at
// calibrated rates so the refactorer's change counts land near Table IV's
// "Changes" column.
//
// The generator is fully deterministic for a given seed. Every generated
// file parses and loads; the per-classifier hot kernels (kernels.go) also
// execute on the interpreter against airlines-derived data.
package corpus

import (
	"fmt"
	"strings"
	"sync"

	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/parser"
)

// Classifiers lists the ten Table II/IV rows in paper order.
var Classifiers = []string{
	"J48", "RandomTree", "RandomForest", "REPTree", "NaiveBayes",
	"Logistic", "SMO", "SGD", "KStar", "IBk",
}

// classSpec configures the per-classifier extra closure beyond the shared
// core: number of helper classes, how many dedicated packages they span, and
// the total count of extra refactorable patterns spread across them. These
// knobs are the calibration documented in DESIGN.md: they set the *sizes* to
// Table II and the pattern densities so measured change counts approach
// Table IV; the resulting metrics and improvements are then measured, never
// asserted.
type classSpec struct {
	family        string // weka.classifiers.<family>
	extras        int
	extraPackages int
	extraPatterns int
}

var specs = map[string]classSpec{
	"J48":          {family: "trees", extras: 23, extraPackages: 2, extraPatterns: 217},
	"RandomTree":   {family: "trees", extras: 7, extraPackages: 2, extraPatterns: 49},
	"RandomForest": {family: "trees", extras: 12, extraPackages: 3, extraPatterns: 59},
	"REPTree":      {family: "trees", extras: 7, extraPackages: 2, extraPatterns: 63},
	"NaiveBayes":   {family: "bayes", extras: 7, extraPackages: 1, extraPatterns: 51},
	"Logistic":     {family: "functions", extras: 5, extraPackages: 1, extraPatterns: 51},
	"SMO":          {family: "functions", extras: 16, extraPackages: 4, extraPatterns: 53},
	"SGD":          {family: "functions", extras: 8, extraPackages: 1, extraPatterns: 53},
	"KStar":        {family: "lazy", extras: 10, extraPackages: 2, extraPatterns: 51},
	"IBk":          {family: "lazy", extras: 10, extraPackages: 2, extraPatterns: 51},
}

// coreClasses is the shared library size; with the roots and extras the
// closures land at Table II's 666–684 dependencies.
const coreClasses = 660

// corePackages spans the shared library across weka-style package names.
var corePackages = []string{
	"weka.core", "weka.core.matrix", "weka.core.converters", "weka.core.neighboursearch",
	"weka.core.stemmers", "weka.core.tokenizers", "weka.core.xml", "weka.core.json",
	"weka.filters", "weka.filters.supervised", "weka.filters.unsupervised",
	"weka.estimators", "weka.associations", "weka.attributeSelection",
	"weka.clusterers", "weka.datagenerators", "weka.experiment",
	"weka.classifiers", "weka.classifiers.evaluation", "weka.classifiers.meta",
	"weka.classifiers.misc", "weka.classifiers.rules", "weka.gui",
	"weka.gui.arffviewer", "weka.gui.beans", "weka.gui.boundaryvisualizer",
	"weka.gui.experiment", "weka.gui.explorer", "weka.gui.graphvisualizer",
	"weka.gui.knowledgeflow", "weka.gui.scripting", "weka.gui.sql",
	"weka.gui.treevisualizer", "weka.gui.visualize", "weka.core.expressionlanguage",
	"weka.core.logging", "weka.core.packageManagement", "weka.core.scripting",
	"weka.core.stopwords",
}

// File is one generated compilation unit.
type File struct {
	Path   string
	Source string
}

// Project is a generated corpus for one classifier.
type Project struct {
	Root  string // fully analyzable root class name, e.g. "J48"
	Files []File
}

// Parse parses every file of the project.
func (p *Project) Parse() ([]*ast.File, error) {
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		a, err := parser.Parse(f.Path, f.Source)
		if err != nil {
			return nil, fmt.Errorf("corpus: generated file %s does not parse: %w", f.Path, err)
		}
		out = append(out, a)
	}
	return out, nil
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Generate builds the corpus for one classifier. The shared core is
// generated from the seed alone, so it is byte-identical across classifiers
// — mirroring how every WEKA classifier shares weka.core. It is generated
// once per seed (see coreFiles): each Project gets its own Files slice, whose
// core entries share their strings with every other Project of that seed.
// The extras, the root class and the kernel are generated on every call.
// Generate is safe for concurrent use.
func Generate(classifier string, seed uint64) (*Project, error) {
	spec, ok := specs[classifier]
	if !ok {
		return nil, fmt.Errorf("corpus: unknown classifier %s", classifier)
	}
	p := &Project{Root: classifier, Files: make([]File, coreClasses, coreClasses+spec.extras+2)}
	copy(p.Files, coreFiles(seed))
	firstCore := coreName(0)

	// Per-classifier extras, in dedicated packages.
	extra := &rng{s: seed ^ hashName(classifier)}
	extraNames := make([]string, spec.extras)
	for i := range extraNames {
		extraNames[i] = fmt.Sprintf("%sHelper%02d", classifier, i)
	}
	perClass := 0
	if spec.extras > 0 {
		perClass = spec.extraPatterns / spec.extras
	}
	rem := spec.extraPatterns - perClass*spec.extras
	for i, name := range extraNames {
		pkg := fmt.Sprintf("weka.classifiers.%s.%s%d",
			spec.family, strings.ToLower(classifier), i%spec.extraPackages)
		next := firstCore
		if i+1 < len(extraNames) {
			next = extraNames[i+1]
		}
		n := perClass
		if i < rem {
			n++
		}
		src := genClass(extra, pkg, name, next, patternKind(i%int(numPatterns)), n)
		p.Files = append(p.Files, File{Path: pathOf(pkg, name), Source: src})
	}

	// Root classifier class referencing the extras chain and the core.
	rootPkg := "weka.classifiers." + spec.family
	first := firstCore
	if len(extraNames) > 0 {
		first = extraNames[0]
	}
	rootSrc := genRootClass(extra, rootPkg, classifier, first, firstCore)
	p.Files = append(p.Files, File{Path: pathOf(rootPkg, classifier), Source: rootSrc})

	// The executable hot kernel for Table IV (see kernels.go).
	if k, ok := kernels[classifier]; ok {
		p.Files = append(p.Files, File{
			Path:   pathOf(rootPkg, classifier+"Kernel"),
			Source: k,
		})
	}
	return p, nil
}

// coreMemo holds the shared core of the seed Generate last asked for. One
// entry suffices: a run generates every classifier at one seed.
var coreMemo struct {
	sync.Mutex
	seed  uint64
	files []File
}

// coreFiles returns the shared core of a seed, generating it on a miss. The
// lock is held while the core is built, so concurrent callers at one seed
// build it once. The slice is shared: callers copy it before appending.
func coreFiles(seed uint64) []File {
	coreMemo.Lock()
	defer coreMemo.Unlock()
	if coreMemo.files == nil || coreMemo.seed != seed {
		coreMemo.seed, coreMemo.files = seed, genCore(seed)
	}
	return coreMemo.files
}

// genCore generates the shared core library from the seed alone.
func genCore(seed uint64) []File {
	r := &rng{s: seed}
	files := make([]File, coreClasses)
	for i := range files {
		pkg := corePackages[i%len(corePackages)]
		pattern := patternKind(i % int(numPatterns)) // ≈1 pattern per core class
		src := genClass(r, pkg, coreName(i), coreName((i+1)%coreClasses), pattern, 1)
		files[i] = File{Path: pathOf(pkg, coreName(i)), Source: src}
	}
	return files
}

func coreName(i int) string { return fmt.Sprintf("Core%03d", i) }

func pathOf(pkg, class string) string {
	return strings.ReplaceAll(pkg, ".", "/") + "/" + class + ".java"
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
