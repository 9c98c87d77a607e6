// Package ast defines the abstract syntax tree produced by the C parser.
//
// Types are resolved at parse time (C cannot be parsed without typedef
// knowledge), so declaration nodes carry *types.Type directly. Expression
// types and symbol resolution are computed later by package sema, which
// records them on the nodes themselves: every expression's type (see
// Expr.ExprType), and the sema symbol id an *Ident resolves to or a
// *VarDecl or *FuncDecl defines (the Sym fields). One sema.Analyze
// annotates the files of one parse; a tree is not analyzed twice.
package ast

import (
	"repro/internal/cc/token"
	"repro/internal/cc/types"
)

// Node is the interface implemented by all AST nodes.
type Node interface {
	Pos() token.Pos
}

// Expr is an expression node. Its type is nil until sema records it.
type Expr interface {
	Node
	ExprType() *types.Type
	SetExprType(*types.Type)
	exprNode()
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// Decl is a declaration node.
type Decl interface {
	Node
	declNode()
}

// Init is an initializer: either an Expr or an *InitList.
type Init interface {
	Node
	initNode()
}

// --- Expressions ---

// typed is embedded in every expression node to hold the type sema
// computes for it (array and function types are not decayed, since &arr
// and arr differ; consumers decay as needed).
type typed struct {
	ty *types.Type
}

// ExprType returns the type sema recorded for the expression.
func (t *typed) ExprType() *types.Type { return t.ty }

// SetExprType records the expression's type.
func (t *typed) SetExprType(ty *types.Type) { t.ty = ty }

// Ident is a use of a name. Sym is the sema.Symbol.ID it resolves to (0
// before analysis).
type Ident struct {
	typed
	P    token.Pos
	Name string
	Sym  int
}

// IntLit is an integer constant.
type IntLit struct {
	typed
	P    token.Pos
	Text string
}

// FloatLit is a floating constant.
type FloatLit struct {
	typed
	P    token.Pos
	Text string
}

// CharLit is a character constant (spelling includes quotes).
type CharLit struct {
	typed
	P    token.Pos
	Text string
}

// StringLit is a string literal; Value is the unescaped contents after
// adjacent-literal concatenation.
type StringLit struct {
	typed
	P     token.Pos
	Value string
}

// Paren is a parenthesized expression (kept so the printer round-trips).
type Paren struct {
	typed
	P token.Pos
	X Expr
}

// Unary is a prefix operator application: & * + - ~ ! ++ --.
type Unary struct {
	typed
	P  token.Pos
	Op token.Kind
	X  Expr
}

// Postfix is x++ or x--.
type Postfix struct {
	typed
	P  token.Pos
	Op token.Kind // INC or DEC
	X  Expr
}

// Binary is a binary operator application (arithmetic, relational, logical).
type Binary struct {
	typed
	P    token.Pos
	Op   token.Kind
	X, Y Expr
}

// Assign is an assignment, possibly compound (+=, -=, ...).
type Assign struct {
	typed
	P    token.Pos
	Op   token.Kind // ASSIGN or op-assign kind
	L, R Expr
}

// Cond is the ternary conditional c ? a : b.
type Cond struct {
	typed
	P       token.Pos
	C, A, B Expr
}

// Comma is the comma operator.
type Comma struct {
	typed
	P    token.Pos
	X, Y Expr
}

// Call is a function call.
type Call struct {
	typed
	P    token.Pos
	Fun  Expr
	Args []Expr
}

// Index is array subscripting a[i].
type Index struct {
	typed
	P    token.Pos
	X, I Expr
}

// Member is field selection: X.Name or X->Name (Arrow).
type Member struct {
	typed
	P     token.Pos
	X     Expr
	Name  string
	Arrow bool
}

// Cast is (T)X.
type Cast struct {
	typed
	P token.Pos
	T *types.Type
	X Expr
}

// SizeofExpr is sizeof expr.
type SizeofExpr struct {
	typed
	P token.Pos
	X Expr
}

// SizeofType is sizeof(T).
type SizeofType struct {
	typed
	P token.Pos
	T *types.Type
}

func (n *Ident) Pos() token.Pos      { return n.P }
func (n *IntLit) Pos() token.Pos     { return n.P }
func (n *FloatLit) Pos() token.Pos   { return n.P }
func (n *CharLit) Pos() token.Pos    { return n.P }
func (n *StringLit) Pos() token.Pos  { return n.P }
func (n *Paren) Pos() token.Pos      { return n.P }
func (n *Unary) Pos() token.Pos      { return n.P }
func (n *Postfix) Pos() token.Pos    { return n.P }
func (n *Binary) Pos() token.Pos     { return n.P }
func (n *Assign) Pos() token.Pos     { return n.P }
func (n *Cond) Pos() token.Pos       { return n.P }
func (n *Comma) Pos() token.Pos      { return n.P }
func (n *Call) Pos() token.Pos       { return n.P }
func (n *Index) Pos() token.Pos      { return n.P }
func (n *Member) Pos() token.Pos     { return n.P }
func (n *Cast) Pos() token.Pos       { return n.P }
func (n *SizeofExpr) Pos() token.Pos { return n.P }
func (n *SizeofType) Pos() token.Pos { return n.P }

func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*CharLit) exprNode()    {}
func (*StringLit) exprNode()  {}
func (*Paren) exprNode()      {}
func (*Unary) exprNode()      {}
func (*Postfix) exprNode()    {}
func (*Binary) exprNode()     {}
func (*Assign) exprNode()     {}
func (*Cond) exprNode()       {}
func (*Comma) exprNode()      {}
func (*Call) exprNode()       {}
func (*Index) exprNode()      {}
func (*Member) exprNode()     {}
func (*Cast) exprNode()       {}
func (*SizeofExpr) exprNode() {}
func (*SizeofType) exprNode() {}

func (*Ident) initNode()      {}
func (*IntLit) initNode()     {}
func (*FloatLit) initNode()   {}
func (*CharLit) initNode()    {}
func (*StringLit) initNode()  {}
func (*Paren) initNode()      {}
func (*Unary) initNode()      {}
func (*Postfix) initNode()    {}
func (*Binary) initNode()     {}
func (*Assign) initNode()     {}
func (*Cond) initNode()       {}
func (*Comma) initNode()      {}
func (*Call) initNode()       {}
func (*Index) initNode()      {}
func (*Member) initNode()     {}
func (*Cast) initNode()       {}
func (*SizeofExpr) initNode() {}
func (*SizeofType) initNode() {}

// InitList is a brace-enclosed initializer list.
type InitList struct {
	P     token.Pos
	Items []Init
}

func (n *InitList) Pos() token.Pos { return n.P }
func (*InitList) initNode()        {}

// --- Statements ---

// ExprStmt is an expression statement.
type ExprStmt struct {
	P token.Pos
	X Expr
}

// Block is a compound statement.
type Block struct {
	P    token.Pos
	List []Stmt
}

// DeclStmt wraps declarations appearing inside a block.
type DeclStmt struct {
	P     token.Pos
	Decls []Decl
}

// Empty is a null statement (bare semicolon).
type Empty struct {
	P token.Pos
}

// If is an if statement.
type If struct {
	P          token.Pos
	Cond       Expr
	Then, Else Stmt // Else may be nil
}

// While is a while loop.
type While struct {
	P    token.Pos
	Cond Expr
	Body Stmt
}

// DoWhile is a do-while loop.
type DoWhile struct {
	P    token.Pos
	Body Stmt
	Cond Expr
}

// For is a for loop; any of Init/Cond/Post may be nil. InitDecl is non-nil
// when the init clause is a declaration (accepted for convenience).
type For struct {
	P        token.Pos
	Init     Expr
	InitDecl *DeclStmt
	Cond     Expr
	Post     Expr
	Body     Stmt
}

// Switch is a switch statement.
type Switch struct {
	P    token.Pos
	Tag  Expr
	Body Stmt
}

// Case is a case or default label within a switch.
type Case struct {
	P    token.Pos
	Expr Expr // nil for default
	Body []Stmt
}

// Break is a break statement.
type Break struct{ P token.Pos }

// Continue is a continue statement.
type Continue struct{ P token.Pos }

// Return is a return statement (Expr may be nil).
type Return struct {
	P    token.Pos
	Expr Expr
}

// Goto is a goto statement.
type Goto struct {
	P     token.Pos
	Label string
}

// Label is a labeled statement.
type Label struct {
	P    token.Pos
	Name string
	Stmt Stmt
}

func (n *ExprStmt) Pos() token.Pos { return n.P }
func (n *Block) Pos() token.Pos    { return n.P }
func (n *DeclStmt) Pos() token.Pos { return n.P }
func (n *Empty) Pos() token.Pos    { return n.P }
func (n *If) Pos() token.Pos       { return n.P }
func (n *While) Pos() token.Pos    { return n.P }
func (n *DoWhile) Pos() token.Pos  { return n.P }
func (n *For) Pos() token.Pos      { return n.P }
func (n *Switch) Pos() token.Pos   { return n.P }
func (n *Case) Pos() token.Pos     { return n.P }
func (n *Break) Pos() token.Pos    { return n.P }
func (n *Continue) Pos() token.Pos { return n.P }
func (n *Return) Pos() token.Pos   { return n.P }
func (n *Goto) Pos() token.Pos     { return n.P }
func (n *Label) Pos() token.Pos    { return n.P }

func (*ExprStmt) stmtNode() {}
func (*Block) stmtNode()    {}
func (*DeclStmt) stmtNode() {}
func (*Empty) stmtNode()    {}
func (*If) stmtNode()       {}
func (*While) stmtNode()    {}
func (*DoWhile) stmtNode()  {}
func (*For) stmtNode()      {}
func (*Switch) stmtNode()   {}
func (*Case) stmtNode()     {}
func (*Break) stmtNode()    {}
func (*Continue) stmtNode() {}
func (*Return) stmtNode()   {}
func (*Goto) stmtNode()     {}
func (*Label) stmtNode()    {}

// --- Declarations ---

// StorageClass is the storage-class specifier of a declaration.
type StorageClass int

// Storage classes.
const (
	StorageNone StorageClass = iota
	StorageTypedef
	StorageExtern
	StorageStatic
	StorageAuto
	StorageRegister
)

func (s StorageClass) String() string {
	switch s {
	case StorageTypedef:
		return "typedef"
	case StorageExtern:
		return "extern"
	case StorageStatic:
		return "static"
	case StorageAuto:
		return "auto"
	case StorageRegister:
		return "register"
	}
	return ""
}

// VarDecl declares one object (variable) or function prototype. Sym is
// the sema.Symbol.ID it declares (0 before analysis).
type VarDecl struct {
	P       token.Pos
	Name    string
	Type    *types.Type
	Storage StorageClass
	Init    Init // may be nil
	Sym     int
}

// TypedefDecl records a typedef (type aliases are resolved at parse time;
// this node exists for printing and tooling).
type TypedefDecl struct {
	P    token.Pos
	Name string
	Type *types.Type
}

// TagDecl records a standalone struct/union/enum declaration such as
// "struct S { ... };" with no declarators.
type TagDecl struct {
	P    token.Pos
	Type *types.Type
}

// FuncDecl is a function definition (with a body). Sym is the
// sema.Symbol.ID it defines (0 before analysis).
type FuncDecl struct {
	P       token.Pos
	Name    string
	Type    *types.Type // Func type; parameter names are in Type.Sig
	Storage StorageClass
	Body    *Block
	Sym     int
}

func (n *VarDecl) Pos() token.Pos     { return n.P }
func (n *TypedefDecl) Pos() token.Pos { return n.P }
func (n *TagDecl) Pos() token.Pos     { return n.P }
func (n *FuncDecl) Pos() token.Pos    { return n.P }

func (*VarDecl) declNode()     {}
func (*TypedefDecl) declNode() {}
func (*TagDecl) declNode()     {}
func (*FuncDecl) declNode()    {}

// File is one parsed translation unit.
type File struct {
	Name  string
	Decls []Decl
}

// Pos returns the file's nominal position.
func (f *File) Pos() token.Pos { return token.Pos{File: f.Name, Line: 1, Col: 1} }

// Unparen strips any Paren wrappers from an expression.
func Unparen(e Expr) Expr {
	for {
		p, ok := e.(*Paren)
		if !ok {
			return e
		}
		e = p.X
	}
}
