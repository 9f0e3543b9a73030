// Package ast defines the abstract syntax tree for the mini-Java dialect,
// along with a visitor used by the suggestion engine and a printer used by
// the refactoring engine to re-emit transformed source.
package ast

import "jepo/internal/minijava/token"

// BasicKind classifies a type.
type BasicKind int

// Type kinds. ClassType covers String, StringBuilder, wrappers, user classes
// and exception classes alike; the interpreter resolves the name.
const (
	Void BasicKind = iota
	Int
	Long
	Short
	Byte
	Char
	Float
	Double
	Boolean
	ClassType
)

var basicNames = [...]string{
	Void: "void", Int: "int", Long: "long", Short: "short", Byte: "byte",
	Char: "char", Float: "float", Double: "double", Boolean: "boolean",
	ClassType: "class",
}

// String names the kind.
func (k BasicKind) String() string {
	if int(k) < len(basicNames) {
		return basicNames[k]
	}
	return "?"
}

// IsNumeric reports whether the kind is a numeric primitive.
func (k BasicKind) IsNumeric() bool {
	switch k {
	case Int, Long, Short, Byte, Char, Float, Double:
		return true
	}
	return false
}

// Type is a (possibly array) type reference.
type Type struct {
	Kind BasicKind
	Name string // class name when Kind == ClassType
	Dims int    // array dimensions
}

// String renders Java type syntax.
func (t Type) String() string {
	s := t.Kind.String()
	if t.Kind == ClassType {
		s = t.Name
	}
	for i := 0; i < t.Dims; i++ {
		s += "[]"
	}
	return s
}

// Elem returns the element type of an array type.
func (t Type) Elem() Type {
	if t.Dims == 0 {
		return t
	}
	e := t
	e.Dims--
	return e
}

// IsString reports whether the type is java.lang.String.
func (t Type) IsString() bool { return t.Kind == ClassType && t.Name == "String" && t.Dims == 0 }

// Modifiers is a bit set of declaration modifiers.
type Modifiers uint8

// Modifier bits.
const (
	ModPublic Modifiers = 1 << iota
	ModPrivate
	ModProtected
	ModStatic
	ModFinal
)

// Has reports whether all bits in m2 are set.
func (m Modifiers) Has(m2 Modifiers) bool { return m&m2 == m2 }

// String renders the modifiers in canonical order.
func (m Modifiers) String() string {
	s := ""
	app := func(bit Modifiers, word string) {
		if m.Has(bit) {
			if s != "" {
				s += " "
			}
			s += word
		}
	}
	app(ModPublic, "public")
	app(ModPrivate, "private")
	app(ModProtected, "protected")
	app(ModStatic, "static")
	app(ModFinal, "final")
	return s
}

// File is one compilation unit.
type File struct {
	Path    string // origin path (used in suggestions and metrics)
	Package string
	Imports []string
	Classes []*Class

	// frozen marks a read-only file: a parse master shared by every reader.
	frozen bool
}

// Freeze marks the file read-only. The artifact store freezes every parse
// master it hands out, and every in-place writer (interp.Load,
// instrument.Inject, passes.ApplyFixes) refuses a frozen file, so a master
// can be read by any number of goroutines and written by none. Freezing is
// one-way: CloneFile returns an unfrozen copy to write to.
func (f *File) Freeze() { f.frozen = true }

// Frozen reports whether the file is read-only.
func (f *File) Frozen() bool { return f.frozen }

// Class is a class declaration.
type Class struct {
	Pos     token.Pos
	Mods    Modifiers
	Name    string
	Extends string // empty if none
	Fields  []*Field
	Methods []*Method
}

// Field is a field declaration.
type Field struct {
	Pos  token.Pos
	Mods Modifiers
	Type Type
	Name string
	Init Expr // may be nil
}

// Param is a method parameter.
type Param struct {
	Type Type
	Name string
}

// Method is a method or constructor declaration.
type Method struct {
	Pos    token.Pos
	Mods   Modifiers
	Ret    Type
	Name   string
	Params []Param
	Throws []string
	Body   *Block // nil for abstract-like declarations (not produced)
	IsCtor bool

	// NSlots is the frame slot count computed by the interpreter's load-time
	// resolver: parameters first, then every distinct local/catch name.
	NSlots int32

	// CIx is 1 + the method's index into the loaded program's compiled
	// function table (0 = no body). Like NSlots it is a load-time
	// annotation and deterministic across repeated loads of the same AST;
	// the table itself is filled on the program's first run, and its entry
	// is empty when the method has no lowering (the tree-walker runs it).
	CIx int32

	// Probe is the profiler label instrument.Inject gives the method ("" =
	// unprobed). Both engines fire the interpreter's probe hook with it at
	// method entry and exit; the body itself is never rewritten.
	Probe string
}

// Node is any AST node carrying a position.
type Node interface{ NodePos() token.Pos }

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// --- statements ---

// Block is `{ stmts }`.
type Block struct {
	Pos   token.Pos
	Stmts []Stmt
}

// LocalVar is a local variable declaration, one declarator per node.
type LocalVar struct {
	Pos   token.Pos
	Final bool
	Type  Type
	Name  string
	Init  Expr // may be nil

	// Slot is 1 + the frame slot assigned by the interpreter's load-time
	// resolver (0 = unresolved).
	Slot int32
}

// ExprStmt wraps an expression used as a statement.
type ExprStmt struct {
	Pos token.Pos
	X   Expr
}

// If is if/else.
type If struct {
	Pos  token.Pos
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// While is a while loop.
type While struct {
	Pos  token.Pos
	Cond Expr
	Body Stmt
}

// For is a C-style for loop.
type For struct {
	Pos  token.Pos
	Init Stmt // LocalVar or ExprStmt or nil
	Cond Expr // may be nil
	Post []Expr
	Body Stmt
}

// Return is a return statement.
type Return struct {
	Pos token.Pos
	X   Expr // may be nil
}

// Break / Continue / Empty.
type Break struct{ Pos token.Pos }
type Continue struct{ Pos token.Pos }
type Empty struct{ Pos token.Pos }

// DoWhile is a do { } while (cond); loop.
type DoWhile struct {
	Pos  token.Pos
	Body Stmt
	Cond Expr
}

// SwitchCase is one `case v0, v1:` (or `default:` when Values is empty) arm
// with its statements; execution falls through to the next arm unless the
// statements end the arm (break/return/throw/continue).
type SwitchCase struct {
	Pos    token.Pos
	Values []Expr // empty = default
	Stmts  []Stmt
}

// Switch is a switch over an int/char/String expression.
type Switch struct {
	Pos   token.Pos
	Tag   Expr
	Cases []SwitchCase
}

// Throw throws an exception value.
type Throw struct {
	Pos token.Pos
	X   Expr
}

// Catch is one catch clause.
type Catch struct {
	Pos   token.Pos
	Type  string // exception class name
	Name  string
	Block *Block

	// Slot is 1 + the frame slot for the caught value, assigned by the
	// interpreter's load-time resolver (0 = unresolved).
	Slot int32
}

// Try is try/catch/finally.
type Try struct {
	Pos     token.Pos
	Block   *Block
	Catches []Catch
	Finally *Block // may be nil
}

func (s *Block) NodePos() token.Pos    { return s.Pos }
func (s *LocalVar) NodePos() token.Pos { return s.Pos }
func (s *ExprStmt) NodePos() token.Pos { return s.Pos }
func (s *If) NodePos() token.Pos       { return s.Pos }
func (s *While) NodePos() token.Pos    { return s.Pos }
func (s *For) NodePos() token.Pos      { return s.Pos }
func (s *Return) NodePos() token.Pos   { return s.Pos }
func (s *Break) NodePos() token.Pos    { return s.Pos }
func (s *Continue) NodePos() token.Pos { return s.Pos }
func (s *Empty) NodePos() token.Pos    { return s.Pos }
func (s *DoWhile) NodePos() token.Pos  { return s.Pos }
func (s *Switch) NodePos() token.Pos   { return s.Pos }
func (s *Throw) NodePos() token.Pos    { return s.Pos }
func (s *Try) NodePos() token.Pos      { return s.Pos }

func (*Block) stmtNode()    {}
func (*LocalVar) stmtNode() {}
func (*ExprStmt) stmtNode() {}
func (*If) stmtNode()       {}
func (*While) stmtNode()    {}
func (*For) stmtNode()      {}
func (*Return) stmtNode()   {}
func (*Break) stmtNode()    {}
func (*Continue) stmtNode() {}
func (*Empty) stmtNode()    {}
func (*DoWhile) stmtNode()  {}
func (*Switch) stmtNode()   {}
func (*Throw) stmtNode()    {}
func (*Try) stmtNode()      {}

// --- expressions ---

// LitKind classifies literals.
type LitKind int

// Literal kinds.
const (
	LitInt LitKind = iota
	LitLong
	LitFloat
	LitDouble
	LitChar
	LitString
	LitBool
	LitNull
)

// Literal is a constant.
type Literal struct {
	Pos  token.Pos
	Kind LitKind
	Raw  string  // original spelling
	I    int64   // int/long/char/bool(0/1)
	D    float64 // float/double
	S    string  // decoded string value
	Sci  bool    // floating literal written in scientific notation
}

// Resolution-cache kinds for Ident.RKind, written by the interpreter's
// load-time resolver (internal/minijava/interp/resolve.go). They record what
// a name resolves to when no live local variable claims it. ResNone (the zero
// value, i.e. a freshly parsed or freshly constructed node) and ResDynamic
// both mean the interpreter must fall back to fully dynamic lookup.
const (
	ResNone      uint8 = iota // unresolved: dynamic lookup
	ResField                  // instance field; RIx is the object slot index
	ResStatic                 // static field; looked up by name in the class's flat table
	ResStaticRef              // static field; RIx indexes the program's static-ref table
	ResClass                  // a class name used as a value
	ResDynamic                // ambiguous across subclasses: dynamic lookup
)

// Ident is a bare identifier (local, field of this, or class name).
type Ident struct {
	Pos  token.Pos
	Name string

	// Interpreter resolution cache, maintained by interp.Load. RSlot is
	// 1 + the frame slot when the enclosing method declares Name as a
	// parameter, local or catch variable (0 otherwise); RKind/RIx cache
	// what Name resolves to when no such local is live.
	RSlot int32
	RKind uint8
	RIx   int32
}

// This is the `this` reference.
type This struct{ Pos token.Pos }

// Select is `X.Name` (field access or class-qualified name).
type Select struct {
	Pos  token.Pos
	X    Expr
	Name string

	// SiteIx is 1 + this site's index in the program's call-site tables,
	// assigned by the interpreter's load-time resolver (0 = unresolved).
	SiteIx int32
}

// Index is `X[I]`.
type Index struct {
	Pos token.Pos
	X   Expr
	I   Expr
}

// Call is a method invocation. Recv may be nil (unqualified call on this or
// a static method of the enclosing class).
type Call struct {
	Pos  token.Pos
	Recv Expr // nil, or receiver expression / class name Ident
	Name string
	Args []Expr

	// SiteIx is 1 + this site's index in the program's call-site tables,
	// assigned by the interpreter's load-time resolver (0 = unresolved).
	SiteIx int32
}

// New is `new C(args)`.
type New struct {
	Pos  token.Pos
	Name string
	Args []Expr

	// SiteIx is 1 + this site's index in the program's call-site tables,
	// assigned by the interpreter's load-time resolver (0 = unresolved).
	SiteIx int32
}

// NewArray is `new T[l0][l1]...` with possibly fewer sized dims than total.
type NewArray struct {
	Pos  token.Pos
	Elem Type   // element base type (Dims = extra unsized dims)
	Lens []Expr // sized dimensions, ≥1
}

// ArrayLit is `{e0, e1, ...}` (only as a variable initializer).
type ArrayLit struct {
	Pos   token.Pos
	Elems []Expr
}

// Unary is prefix `Op X` or postfix `X Op` for ++/--.
type Unary struct {
	Pos     token.Pos
	Op      token.Kind
	X       Expr
	Postfix bool
}

// Binary is `X Op Y`.
type Binary struct {
	Pos token.Pos
	Op  token.Kind
	X   Expr
	Y   Expr
}

// Assign is `LHS Op RHS` where Op is = or a compound assignment.
type Assign struct {
	Pos token.Pos
	Op  token.Kind
	LHS Expr
	RHS Expr
}

// Ternary is `Cond ? Then : Else`.
type Ternary struct {
	Pos  token.Pos
	Cond Expr
	Then Expr
	Else Expr
}

// Cast is `(T) X`.
type Cast struct {
	Pos  token.Pos
	Type Type
	X    Expr
}

// InstanceOf is `X instanceof Name`.
type InstanceOf struct {
	Pos  token.Pos
	X    Expr
	Name string
}

func (e *Literal) NodePos() token.Pos    { return e.Pos }
func (e *Ident) NodePos() token.Pos      { return e.Pos }
func (e *This) NodePos() token.Pos       { return e.Pos }
func (e *Select) NodePos() token.Pos     { return e.Pos }
func (e *Index) NodePos() token.Pos      { return e.Pos }
func (e *Call) NodePos() token.Pos       { return e.Pos }
func (e *New) NodePos() token.Pos        { return e.Pos }
func (e *NewArray) NodePos() token.Pos   { return e.Pos }
func (e *ArrayLit) NodePos() token.Pos   { return e.Pos }
func (e *Unary) NodePos() token.Pos      { return e.Pos }
func (e *Binary) NodePos() token.Pos     { return e.Pos }
func (e *Assign) NodePos() token.Pos     { return e.Pos }
func (e *Ternary) NodePos() token.Pos    { return e.Pos }
func (e *Cast) NodePos() token.Pos       { return e.Pos }
func (e *InstanceOf) NodePos() token.Pos { return e.Pos }

func (*Literal) exprNode()    {}
func (*Ident) exprNode()      {}
func (*This) exprNode()       {}
func (*Select) exprNode()     {}
func (*Index) exprNode()      {}
func (*Call) exprNode()       {}
func (*New) exprNode()        {}
func (*NewArray) exprNode()   {}
func (*ArrayLit) exprNode()   {}
func (*Unary) exprNode()      {}
func (*Binary) exprNode()     {}
func (*Assign) exprNode()     {}
func (*Ternary) exprNode()    {}
func (*Cast) exprNode()       {}
func (*InstanceOf) exprNode() {}
