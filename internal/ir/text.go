package ir

import "strconv"

// The text of every IR value has one spelling: an AppendText method that
// appends it to a caller's buffer.  String() is string(AppendText(nil)) —
// never the other way round — so a printer that builds a page of text
// (the node-program emitter, the report) pays for one buffer, and whoever
// asks for a string reads the same bytes.

// AppendText appends the expression as String renders it, e.g. "N-2" or
// "2*P+1".
func (a AffExpr) AppendText(dst []byte) []byte { return a.appendText(dst, false) }

// appendText renders the expression; with plus set a non-negative leading
// element carries its sign, which is how an offset follows a variable.
func (a AffExpr) appendText(dst []byte, plus bool) []byte {
	terms := false
	for _, t := range a.Terms {
		if t.Coef == 0 {
			continue
		}
		if plus && t.Coef > 0 {
			dst = append(dst, '+')
		}
		switch t.Coef {
		case 1:
		case -1:
			dst = append(dst, '-')
		default:
			dst = strconv.AppendInt(dst, int64(t.Coef), 10)
			dst = append(dst, '*')
		}
		dst = append(dst, t.Name...)
		plus, terms = true, true
	}
	if terms && a.Const == 0 {
		return dst
	}
	if plus && a.Const > 0 {
		dst = append(dst, '+')
	}
	return strconv.AppendInt(dst, int64(a.Const), 10)
}

// String renders the expression, e.g. "N-2" or "2*P+1".
func (a AffExpr) String() string { return string(a.AppendText(nil)) }

// AppendText appends the subscript, e.g. "i+1", "-i+N", "5".
func (s Subscript) AppendText(dst []byte) []byte {
	if s.Var == "" {
		return s.Off.AppendText(dst)
	}
	switch s.Coef {
	case 1:
	case -1:
		dst = append(dst, '-')
	default:
		dst = strconv.AppendInt(dst, int64(s.Coef), 10)
		dst = append(dst, '*')
	}
	dst = append(dst, s.Var...)
	if s.Off.isZero() {
		return dst
	}
	return s.Off.appendText(dst, true)
}

// String renders the subscript, e.g. "i+1", "-i+N", "5".
func (s Subscript) String() string { return string(s.AppendText(nil)) }

// AppendText appends the reference, e.g. "u(i+1,j,k)"; a zero-subscript
// reference is its name.
func (r *ArrayRef) AppendText(dst []byte) []byte {
	dst = append(dst, r.Name...)
	if len(r.Subs) == 0 {
		return dst
	}
	dst = append(dst, '(')
	for i, sub := range r.Subs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = sub.AppendText(dst)
	}
	return append(dst, ')')
}

func (r *ArrayRef) String() string { return string(r.AppendText(nil)) }

func (e FloatConst) AppendText(dst []byte) []byte {
	return strconv.AppendFloat(dst, e.Val, 'g', -1, 64)
}
func (e IndexRef) AppendText(dst []byte) []byte  { return append(dst, e.Name...) }
func (e ParamRef) AppendText(dst []byte) []byte  { return append(dst, e.Name...) }
func (e ScalarRef) AppendText(dst []byte) []byte { return append(dst, e.Name...) }

func (e *Bin) AppendText(dst []byte) []byte {
	dst = e.L.AppendText(append(dst, '('))
	dst = append(dst, ' ', e.Op, ' ')
	return append(e.R.AppendText(dst), ')')
}

func (e *Intrinsic) AppendText(dst []byte) []byte {
	dst = append(dst, e.Name...)
	dst = append(dst, '(')
	dst = AppendArgs(dst, e.Args)
	return append(dst, ')')
}

// AppendArgs appends an argument list, comma-separated.
func AppendArgs(dst []byte, args []Expr) []byte {
	for i, a := range args {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = a.AppendText(dst)
	}
	return dst
}

func (e FloatConst) String() string { return string(e.AppendText(nil)) }
func (e IndexRef) String() string   { return e.Name }
func (e ParamRef) String() string   { return e.Name }
func (e ScalarRef) String() string  { return e.Name }
func (e *Bin) String() string       { return string(e.AppendText(nil)) }
func (e *Intrinsic) String() string { return string(e.AppendText(nil)) }

// AppendText appends the comparison, e.g. "i <= N-2".
func (c Cond) AppendText(dst []byte) []byte {
	dst = c.L.AppendText(dst)
	dst = append(dst, ' ')
	dst = append(dst, c.Op...)
	return c.R.AppendText(append(dst, ' '))
}

func (c Cond) String() string { return string(c.AppendText(nil)) }
