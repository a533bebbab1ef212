package ir

import (
	"sort"
	"strconv"
)

// Print renders the program in mini-HPF surface syntax.  The output is
// re-parseable by internal/parser, which the round-trip tests exercise.
func Print(p *Program) string {
	b := AppendHeader(nil, p)
	for _, pr := range p.Procs {
		b = AppendProc(append(b, '\n'), pr)
	}
	return string(b)
}

// AppendHeader appends the program-level context every procedure
// compiles under: program name, parameter defaults, and the directive set
// (processors, templates, aligns, distributes).  It is Print minus the
// procedure bodies, and forms the shared half of per-unit fingerprints —
// a directive or parameter edit must dirty every unit.
func AppendHeader(b []byte, p *Program) []byte {
	b = append(append(append(b, "program "...), p.Name...), '\n')
	names := make([]string, 0, len(p.Params))
	for n := range p.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b = append(append(append(b, "param "...), n...), " = "...)
		b = append(strconv.AppendInt(b, int64(p.Params[n]), 10), '\n')
	}
	for _, d := range p.Processors {
		b = appendExtents(append(b, "!hpf$ processors "...), d.Name, d.Extents)
	}
	for _, d := range p.Templates {
		b = appendExtents(append(b, "!hpf$ template "...), d.Name, d.Extents)
	}
	for _, d := range p.Aligns {
		b = append(append(append(b, "!hpf$ align "...), d.Array...), " with "...)
		b = append(append(b, d.Template...), '(')
		for i, ad := range d.Dims {
			if i > 0 {
				b = append(b, ',')
			}
			if ad.TDim < 0 {
				b = append(b, '*')
				continue
			}
			b = strconv.AppendInt(append(b, 'd'), int64(ad.TDim), 10)
			if c, ok := ad.Off.IsConst(); !ok || c != 0 {
				b = ad.Off.AppendText(append(b, '+'))
			}
		}
		b = append(b, ")\n"...)
	}
	for _, d := range p.Distributes {
		b = append(append(append(b, "!hpf$ distribute "...), d.Target...), '(')
		for i, s := range d.Specs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, s.Kind.String()...)
			if s.Kind == DistBlock && s.Has {
				b = append(s.Size.AppendText(append(b, '(')), ')')
			}
		}
		b = append(append(append(b, ") onto "...), d.Onto...), '\n')
	}
	return b
}

// appendExtents appends "name(e1, e2, …)" and ends the line.
func appendExtents(b []byte, name string, extents []AffExpr) []byte {
	b = append(append(b, name...), '(')
	for i, x := range extents {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = x.AppendText(b)
	}
	return append(b, ")\n"...)
}

// AppendProc appends one procedure in the same canonical surface syntax
// Print uses.  Because the parser already normalized whitespace and
// stripped comments, two procedure bodies that differ only in layout or
// commentary render identically — which makes this the per-unit content
// hash input of incremental compilation: a procedure's fingerprint
// changes exactly when its parsed form does.
func AppendProc(b []byte, pr *Procedure) []byte {
	b = append(append(append(b, "subroutine "...), pr.Name...), '(')
	for i, f := range pr.Formals {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, f...)
	}
	b = append(b, ")\n"...)
	for _, d := range pr.Decls {
		b = append(append(b, "  real "...), d.Name...)
		if d.Rank() > 0 {
			b = append(b, '(')
			for k := range d.LB {
				if k > 0 {
					b = append(b, ", "...)
				}
				b = d.UB[k].AppendText(append(d.LB[k].AppendText(b), ':'))
			}
			b = append(b, ')')
		}
		b = append(b, '\n')
	}
	return append(appendBody(b, pr.Body, 1), "end\n"...)
}

func appendBody(b []byte, body []Stmt, depth int) []byte {
	for _, s := range body {
		switch st := s.(type) {
		case *Assign:
			b = st.RHS.AppendText(append(st.LHS.AppendText(appendIndent(b, depth)), " = "...))
			b = append(b, '\n')
		case *CallStmt:
			b = append(append(append(appendIndent(b, depth), "call "...), st.Callee...), '(')
			b = append(AppendArgs(b, st.Args), ")\n"...)
		case *IfStmt:
			b = append(st.Cond.AppendText(append(appendIndent(b, depth), "if ("...)), ") then\n"...)
			b = appendBody(b, st.Then, depth+1)
			if len(st.Else) > 0 {
				b = appendBody(append(appendIndent(b, depth), "else\n"...), st.Else, depth+1)
			}
			b = append(appendIndent(b, depth), "endif\n"...)
		case *Loop:
			if st.Independent {
				b = append(appendIndent(b, depth), "!hpf$ independent"...)
				b = appendClause(b, ", new(", st.New)
				b = appendClause(b, ", localize(", st.Localize)
				b = append(b, '\n')
			}
			b = append(append(append(appendIndent(b, depth), "do "...), st.Var...), " = "...)
			b = st.Hi.AppendText(append(st.Lo.AppendText(b), ", "...))
			if st.Step != 1 {
				b = strconv.AppendInt(append(b, ", "...), int64(st.Step), 10)
			}
			b = appendBody(append(b, '\n'), st.Body, depth+1)
			b = append(appendIndent(b, depth), "enddo\n"...)
		}
	}
	return b
}

func appendIndent(b []byte, depth int) []byte {
	for ; depth > 0; depth-- {
		b = append(b, "  "...)
	}
	return b
}

// appendClause appends a directive clause "open name,name)", or nothing
// for an empty list.
func appendClause(b []byte, open string, names []string) []byte {
	if len(names) == 0 {
		return b
	}
	b = append(b, open...)
	for i, n := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, n...)
	}
	return append(b, ')')
}
