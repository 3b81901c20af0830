package phpast

// walkStackSize is the walk stack's in-frame capacity: trees whose
// pending-node frontier stays within it are walked without allocating.
const walkStackSize = 64

// Inspect traverses the AST rooted at node in depth-first order, calling f
// for each node. If f returns false for a node, its children are skipped.
// Nil nodes are ignored.
func Inspect(node Node, f func(Node) bool) {
	if node == nil {
		return
	}
	var buf [walkStackSize]Node
	walk(append(buf[:0], node), f)
}

// InspectStmts traverses each statement in list with Inspect.
func InspectStmts(list []Stmt, f func(Node) bool) {
	var buf [walkStackSize]Node
	stack := buf[:0]
	for i := len(list) - 1; i >= 0; i-- {
		if list[i] != nil {
			stack = append(stack, list[i])
		}
	}
	walk(stack, f)
}

// walk visits the nodes on stack, top first, in depth-first pre-order.
// A visited node's children replace it on the stack in reverse, so the
// first child is visited next.
func walk(stack []Node, f func(Node) bool) {
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// A VarVar's Expr is appended unchecked, so nil can reach here.
		if n == nil || !f(n) {
			continue
		}
		mark := len(stack)
		stack = appendChildren(stack, n)
		for i, j := mark, len(stack)-1; i < j; i, j = i+1, j-1 {
			stack[i], stack[j] = stack[j], stack[i]
		}
	}
}

// CountNodes returns the number of AST nodes in a file, the size figure
// the observability layer reports per parse (parse_ast_nodes_total).
func CountNodes(f *File) int {
	if f == nil {
		return 0
	}
	n := 0
	InspectStmts(f.Stmts, func(Node) bool {
		n++
		return true
	})
	return n
}

// Children returns the direct child nodes of n in source order. It returns
// nil for leaves.
func Children(n Node) []Node { return appendChildren(nil, n) }

// appendChildren appends the direct child nodes of n to out in source
// order. It is exhaustive over the node types defined in this package;
// leaves and unknown nodes append nothing.
func appendChildren(out []Node, n Node) []Node {
	switch x := n.(type) {
	case *VarVar:
		return append(out, x.Expr)
	case *PropertyFetch:
		return appendNodes(out, x.Object, x.NameExpr)
	case *IndexFetch:
		return appendNodes(out, x.Base, x.Index)
	case *FuncCall:
		return appendArgs(appendNode(out, x.NameExpr), x.Args)
	case *MethodCall:
		return appendArgs(appendNodes(out, x.Object, x.NameExpr), x.Args)
	case *StaticCall:
		return appendArgs(out, x.Args)
	case *New:
		return appendArgs(appendNode(out, x.ClassExpr), x.Args)
	case *Assign:
		return appendNodes(out, x.LHS, x.RHS)
	case *Binary:
		return appendNodes(out, x.L, x.R)
	case *Unary:
		return appendNode(out, x.X)
	case *IncDec:
		return appendNode(out, x.X)
	case *Ternary:
		return appendNode(appendNodes(out, x.Cond, x.Then), x.Else)
	case *Cast:
		return appendNode(out, x.X)
	case *InterpString:
		return appendExprs(out, x.Parts)
	case *ArrayLit:
		for _, it := range x.Items {
			out = appendNodes(out, it.Key, it.Value)
		}
		return out
	case *ListExpr:
		return appendExprs(out, x.Targets)
	case *IssetExpr:
		return appendExprs(out, x.Vars)
	case *EmptyExpr:
		return appendNode(out, x.X)
	case *IncludeExpr:
		return appendNode(out, x.Path)
	case *ExitExpr:
		return appendNode(out, x.X)
	case *PrintExpr:
		return appendNode(out, x.X)
	case *CloneExpr:
		return appendNode(out, x.X)
	case *InstanceOf:
		return appendNode(out, x.X)
	case *Closure:
		return appendStmts(appendDefaults(out, x.Params), x.Body)

	case *ExprStmt:
		return appendNode(out, x.X)
	case *Echo:
		return appendExprs(out, x.Args)
	case *Block:
		return appendStmts(out, x.List)
	case *If:
		out = appendStmts(appendNode(out, x.Cond), x.Then)
		for _, ei := range x.Elseifs {
			out = appendStmts(appendNode(out, ei.Cond), ei.Body)
		}
		return appendStmts(out, x.Else)
	case *While:
		return appendStmts(appendNode(out, x.Cond), x.Body)
	case *DoWhile:
		return appendNode(appendStmts(out, x.Body), x.Cond)
	case *For:
		out = appendExprs(appendExprs(appendExprs(out, x.Init), x.Cond), x.Post)
		return appendStmts(out, x.Body)
	case *Foreach:
		out = appendNode(appendNodes(out, x.Expr, x.Key), x.Value)
		return appendStmts(out, x.Body)
	case *Switch:
		out = appendNode(out, x.Cond)
		for _, c := range x.Cases {
			out = appendStmts(appendNode(out, c.Cond), c.Body)
		}
		return out
	case *Return:
		return appendNode(out, x.X)
	case *StaticVars:
		for _, v := range x.Vars {
			out = appendNode(out, v.Default)
		}
		return out
	case *Unset:
		return appendExprs(out, x.Vars)
	case *Throw:
		return appendNode(out, x.X)
	case *Try:
		out = appendStmts(out, x.Body)
		for _, c := range x.Catches {
			out = appendStmts(out, c.Body)
		}
		return appendStmts(out, x.Finally)
	case *FuncDecl:
		return appendStmts(appendDefaults(out, x.Params), x.Body)
	case *ClassDecl:
		for _, p := range x.Props {
			out = appendNode(out, p.Default)
		}
		for _, c := range x.Consts {
			out = appendNode(out, c.Value)
		}
		for _, m := range x.Methods {
			out = appendStmts(appendDefaults(out, m.Params), m.Body)
		}
		return out
	default:
		return out
	}
}

// appendNodes appends the non-nil expressions of a pair.
func appendNodes(out []Node, a, b Expr) []Node {
	return appendNode(appendNode(out, a), b)
}

// appendExprs appends the non-nil expressions of a slice.
func appendExprs(out []Node, exprs []Expr) []Node {
	for _, e := range exprs {
		out = appendNode(out, e)
	}
	return out
}

// appendArgs appends the non-nil argument values.
func appendArgs(out []Node, args []Arg) []Node {
	for _, a := range args {
		out = appendNode(out, a.Value)
	}
	return out
}

// appendDefaults appends the non-nil parameter default values.
func appendDefaults(out []Node, params []Param) []Node {
	for _, p := range params {
		out = appendNode(out, p.Default)
	}
	return out
}

// appendNode appends e when it is a non-nil node.
func appendNode(out []Node, e Expr) []Node {
	if isNilExpr(e) {
		return out
	}
	return append(out, e)
}

// appendStmts appends all non-nil statements.
func appendStmts(out []Node, list []Stmt) []Node {
	for _, s := range list {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// isNilExpr reports whether e is nil, including a typed nil inside the
// interface.
func isNilExpr(e Expr) bool {
	if e == nil {
		return true
	}
	switch v := e.(type) {
	case *BadExpr:
		return v == nil
	case *Var:
		return v == nil
	default:
		return false
	}
}
