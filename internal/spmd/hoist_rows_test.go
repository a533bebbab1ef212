package spmd

// hoistRows are programs built against the evaluator's loop-entry hoists
// (kernel_eval.go): each holds a subtree that looks invariant in its loop
// and is not, or is but may only be computed on some entries, so that
// dropping one legality condition of the hoist changes a value, a flop
// count or an error.  They run three ways with TestThreeWaysAgree and seed
// FuzzThreeWays and FuzzExecEngines.  Hoisted is the number of subtrees
// the evaluator does hoist in the whole program — a row that stopped
// hoisting anything would pin nothing — and Bails the invocations whose
// precheck declines.
var hoistRows = []HoistRow{
	// One array under two formals: x(i,0) is stored in the m loop that
	// reads y(i,0)*2.0 + 1.0, and y is x.  By name the read is invariant;
	// hoisted to the loop's entry it gives a(i,0) = 2.75 where the
	// interpreter gives 6.5.
	{"alias-formals", `
program ali
param N = 8
!hpf$ processors procs(2)
!hpf$ template tm(N, 4)
!hpf$ align a with tm(d0, d1)
!hpf$ distribute tm(BLOCK, *) onto procs
subroutine f(x, y, i)
  real x(0:N-1, 0:3)
  real y(0:N-1, 0:3)
  do m = 1, 2
    x(i,0) = y(i,0) * 2.0 + 1.0
  enddo
end
subroutine main()
  real a(0:N-1, 0:3)
  do i = 0, N-1
    a(i,0) = 0.875
  enddo
  do i = 0, N-1
    call f(a, a, i)
  enddo
end
`, 1, 0},
	// s is stored by the first statement of the m loop's body and read by
	// the second inside s*2.0 + 1.0, which has no term in m: hoisted, every
	// b(m,i) would be computed from the s the previous i left behind.
	{"scalar-carried", `
program sca
param N = 16
!hpf$ processors procs(4)
!hpf$ template tm(4, N)
!hpf$ template tline(N)
!hpf$ align b with tm(d0, d1)
!hpf$ align a with tline(d0)
!hpf$ distribute tm(*, BLOCK) onto procs
!hpf$ distribute tline(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real b(1:4, 0:N-1)
  real s
  do i = 0, N-1
    a(i) = 0.5 * i
  enddo
  do i = 0, N-1
    do m = 1, 4
      s = 0.25 * m + a(i)
      b(m,i) = (s * 2.0 + 1.0) + (a(i) * 3.0 + 0.5)
    enddo
  enddo
end
`, 1, 0},
	// t(j) is stored only inside the m loop nested in the i loop, and read
	// by a statement of the i loop's own body under a subscript without i:
	// hoisted to the i loop's entry, x(i,j) would see t(j) as the previous
	// j left it.  (0.5*j + 2.0 is hoisted.)
	{"nested-store", `
program nst
param N = 16
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ template tline(N)
!hpf$ align x with tm(d0, d1)
!hpf$ align t with tline(d0)
!hpf$ distribute tm(*, BLOCK) onto procs
!hpf$ distribute tline(BLOCK) onto procs
subroutine main()
  real x(0:N-1, 0:N-1)
  real t(0:N-1)
  do j = 0, N-1
    t(j) = 0.5 * j
  enddo
  do j = 0, N-1
    do i = 0, N-1
      x(i,j) = (t(j) * 2.0 + 1.0) + (0.5 * j + 2.0) * i
      do m = 1, 3
        t(j) = t(j) + 0.125 * m
      enddo
    enddo
  enddo
end
`, 1, 0},
	// A store in one if arm keeps t(i)*2.0 + 1.0 of a later statement in
	// place; u(i)*3.0 + 0.5, inside the other arm, is hoisted, and computed
	// at every entry whether or not the arm is taken.
	{"if-arm", `
program ifa
param N = 16
!hpf$ processors procs(4)
!hpf$ template tm(4, N)
!hpf$ template tline(N)
!hpf$ align b with tm(d0, d1)
!hpf$ align c with tm(d0, d1)
!hpf$ align t with tline(d0)
!hpf$ align u with tline(d0)
!hpf$ distribute tm(*, BLOCK) onto procs
!hpf$ distribute tline(BLOCK) onto procs
subroutine main()
  real b(1:4, 0:N-1)
  real c(1:4, 0:N-1)
  real t(0:N-1)
  real u(0:N-1)
  do i = 0, N-1
    t(i) = 0.5 * i
    u(i) = 1.0 + 0.25 * i
    do m = 1, 4
      c(m,i) = 0.0
    enddo
  enddo
  do i = 0, N-1
    do m = 1, 4
      if (m > 2) then
        t(i) = t(i) + 1.0
      else
        c(m,i) = (u(i) * 3.0 + 0.5) * m
      endif
      b(m,i) = (t(i) * 2.0 + 1.0) + m
    enddo
  enddo
end
`, 1, 0},
	// A descending innermost loop (step -1) whose range is narrowed from
	// the top, and whose two statements run on different columns: a's on
	// the owner of j+1, b's on the owner of j.  On a rank's last column a's
	// range is empty while b's is the whole loop's — a statement does not run
	// because another's range is the loop's — and on the column before its
	// first the other way round.
	{"descending", `
program dsc
param N = 16
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs
subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  real w(0:N-1)
  do j = 0, N-1
    w(j) = 0.25 * j
    do i = 0, N-1
      a(i,j) = 0.0
    enddo
  enddo
  do j = 0, N-2
    do i = N-2, 1, -1
      a(i,j+1) = (w(j+1) * 2.0 + 1.0) + 0.5 * i
      b(i,j) = (w(j) * 3.0 + 0.5) + 0.25 * i
    enddo
  enddo
end
`, 2, 0},
	// Rank 2 runs a's statement on columns 8..11 and b's on 12..15: on those
	// the i loop is entered with a's range empty, and w(j+4), which its
	// hoisted subtree reads, is past the end of w — the precheck proved the
	// read only over a's own columns, so the hoist must not be computed
	// there.  (Rank 3 cannot prove it at all — the condition protects it —
	// and declines its one invocation to the walker.)
	{"empty-range", `
program emr
param N = 16
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs
subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  real w(0:N-1)
  do j = 0, N-1
    w(j) = 0.25 * j
    do i = 0, N-1
      a(i,j) = 0.0
    enddo
  enddo
  do j = 4, N-1
    do i = 0, N-1
      if (j < N-4) then
        a(i,j) = (w(j+4) * 2.0 + 1.0) + 0.5 * i
      endif
      b(i,j-4) = (w(j) * 3.0 + 0.5) + 0.25 * i
    enddo
  enddo
end
`, 2, 1},
	// Operands nested to the right past the evaluator's stack, so that the
	// innermost are computed into temporaries and called, and intrinsics
	// whose arguments are temporaries too, one of them hoisted whole.
	{"deep-operands", `
program dpo
param N = 16
!hpf$ processors procs(4)
!hpf$ template tm(3, N)
!hpf$ template tline(N)
!hpf$ align b with tm(d0, d1)
!hpf$ align c with tm(d0, d1)
!hpf$ align a with tline(d0)
!hpf$ distribute tm(*, BLOCK) onto procs
!hpf$ distribute tline(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real b(1:3, 0:N-1)
  real c(1:3, 0:N-1)
  do i = 0, N-1
    a(i) = 1.0 + 0.5 * i
  enddo
  do i = 0, N-1
    do m = 1, 3
      b(m,i) = a(i) - (0.5 * m + (a(i) / (2.0 + (0.25 * m - (a(i) * (1.5 + (m + 0.125 * a(i))))))))
      c(m,i) = sqrt(abs(a(i) * 2.0 + 1.0)) + max(0.5 * m, a(i) - (1.0 - 0.5 * m))
    enddo
  enddo
end
`, 2, 0},
	// rho is LOCALIZE'd on a 2×2 grid: every rank computes it on its block
	// and two halo faces, three boxes whose hull has a corner no box holds.
	// At that (j,k) the m loop is entered with an empty range, and the
	// hoisted 1.0/u(j,k) + 0.5 is not computed.  (The other hoist is 0.02*k
	// of the first nest.)
	{"localize-corner", `
program lcc
param N = 12
!hpf$ processors procs(2, 2)
!hpf$ template tm(N, N)
!hpf$ align u with tm(d0, d1)
!hpf$ align v with tm(d0, d1)
!hpf$ align rho with tm(d0, d1)
!hpf$ distribute tm(BLOCK, BLOCK) onto procs
subroutine main()
  real u(0:N-1, 0:N-1)
  real v(0:N-1, 0:N-1)
  real rho(0:N-1, 0:N-1)
  do k = 0, N-1
    do j = 0, N-1
      u(j,k) = 1.0 + 0.01 * j + 0.02 * k
      v(j,k) = 0.0
    enddo
  enddo
  !hpf$ independent, localize(rho)
  do onetrip = 1, 1
    do k = 0, N-1
      do j = 0, N-1
        do m = 1, 3
          rho(j,k) = (1.0 / u(j,k) + 0.5) * m
        enddo
      enddo
    enddo
    do k = 1, N-2
      do j = 1, N-2
        v(j,k) = rho(j+1,k) + rho(j-1,k) + rho(j,k+1) + rho(j,k-1) - 4.0 * rho(j,k)
      enddo
    enddo
  enddo
end
`, 2, 0},
	// Right operands of every kind under the operations no other row puts
	// them under — a constant, a local, a constant times an element, an
	// intrinsic and a hoisted subtree divided by; a local and an intrinsic
	// subtracted; a constant times an element multiplied by — so that each
	// arm of the evaluator's dispatch runs against the interpreter.  (The
	// other hoist is 0.125*i of the first nest.)
	{"operand-ops", `
program opo
param N = 16
!hpf$ processors procs(4)
!hpf$ template tm(3, N)
!hpf$ template tline(N)
!hpf$ align b with tm(d0, d1)
!hpf$ align c with tm(d0, d1)
!hpf$ align d with tm(d0, d1)
!hpf$ align a with tline(d0)
!hpf$ distribute tm(*, BLOCK) onto procs
!hpf$ distribute tline(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real b(1:3, 0:N-1)
  real c(1:3, 0:N-1)
  real d(1:3, 0:N-1)
  do i = 0, N-1
    a(i) = 1.0 + 0.5 * i
    do m = 1, 3
      c(m,i) = 0.75 * m + 0.125 * i
    enddo
  enddo
  do i = 0, N-1
    do m = 1, 3
      b(m,i) = (c(m,i) / 3.0 - m) * (2.0 * c(m,i)) / (0.7 * c(m,i)) / m
      d(m,i) = (c(m,i) - sqrt(c(m,i))) / abs(c(m,i) - 0.5) / (a(i) * 3.0 + 0.5)
    enddo
  enddo
end
`, 2, 0},
}
