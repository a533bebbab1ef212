package nas

import "fmt"

// SPModSource is the modular form of SPSource: the same simplified SP
// solver split into the benchmark's real subroutine structure (init,
// compute_rhs, lhs setup, the three sweep phases and add), with main
// reduced to the time-step loop calling them on whole-array arguments.
// The phases are word-for-word the loops of SPSource, so the compiled
// communication structure matches; only the interprocedural CP
// translation (§6) has more work to do.
//
// The split is what makes the program interesting to the incremental
// compiler: editing one phase (the canonical warm-edit benchmark edits
// the CoefAdd constant inside add) leaves every other phase's per-unit
// fingerprint unchanged, so their CP selections, communication plans,
// verification and analysis fragments all thaw from the artifact store
// and only add — plus main, whose environment embeds its callees —
// recompiles.
func SPModSource(n, steps, p1, p2 int) string {
	return fmt.Sprintf(`
program spmod
param N = %d
param STEPS = %d
param P1 = %d
param P2 = %d

!hpf$ processors procs(P1, P2)
!hpf$ template tm(N, N, N)
!hpf$ align u with tm(d0, d1, d2)
!hpf$ align rho with tm(d0, d1, d2)
!hpf$ align rhs with tm(*, d0, d1, d2)
!hpf$ align spd with tm(d0, d1, d2)
!hpf$ distribute tm(*, BLOCK, BLOCK) onto procs

! initialization (owner-computes everywhere, no communication)
subroutine init(u, rho, spd, rhs)
  real u(0:N-1, 0:N-1, 0:N-1)
  real rho(0:N-1, 0:N-1, 0:N-1)
  real spd(0:N-1, 0:N-1, 0:N-1)
  real rhs(1:5, 0:N-1, 0:N-1, 0:N-1)
  do k = 0, N-1
    do j = 0, N-1
      do i = 0, N-1
        u(i,j,k) = 1.0 + 0.001*i + 0.002*j + 0.003*k
        rho(i,j,k) = 0.0
        spd(i,j,k) = 0.0
        do m = 1, 5
          rhs(m,i,j,k) = 0.0
        enddo
      enddo
    enddo
  enddo
end

! compute_rhs: reciprocals partially replicated (LOCALIZE)
subroutine compute_rhs(u, rho, rhs)
  real u(0:N-1, 0:N-1, 0:N-1)
  real rho(0:N-1, 0:N-1, 0:N-1)
  real rhs(1:5, 0:N-1, 0:N-1, 0:N-1)
  !hpf$ independent, localize(rho)
  do onetrip = 1, 1
    do k = 0, N-1
      do j = 0, N-1
        do i = 0, N-1
          rho(i,j,k) = 1.0 / u(i,j,k)
        enddo
      enddo
    enddo
    do k = 2, N-3
      do j = 2, N-3
        do i = 2, N-3
          do m = 1, 5
            rhs(m,i,j,k) = %g*(rho(i+1,j,k) + rho(i-1,j,k) + rho(i,j+1,k) + rho(i,j-1,k) + rho(i,j,k+1) + rho(i,j,k-1) - 6.0*rho(i,j,k)) + %g*m*(u(i+2,j,k) + u(i-2,j,k) + u(i,j+2,k) + u(i,j-2,k) + u(i,j,k+2) + u(i,j,k-2))
          enddo
        enddo
      enddo
    enddo
  enddo
end

! lhs setup: privatizable line temporary (NEW), as in lhsy
subroutine lhs(u, spd)
  real u(0:N-1, 0:N-1, 0:N-1)
  real spd(0:N-1, 0:N-1, 0:N-1)
  real cv(0:N-1)
  do k = 0, N-1
    !hpf$ independent, new(cv)
    do i = 0, N-1
      do j = 0, N-1
        cv(j) = %g * u(i,j,k)
      enddo
      do j = 1, N-2
        spd(i,j,k) = cv(j-1) + cv(j+1)
      enddo
    enddo
  enddo
end

! x_solve: bi-directional sweeps along the undistributed dimension.
! Like the real (diagonalized ADI) SP, each direction solves three
! pentadiagonal systems: the scalar system for the first three
! components, and the u+c / u-c acoustic systems for the last two.
subroutine x_solve(u, spd, rhs)
  real u(0:N-1, 0:N-1, 0:N-1)
  real spd(0:N-1, 0:N-1, 0:N-1)
  real rhs(1:5, 0:N-1, 0:N-1, 0:N-1)
  do k = 1, N-2
    do j = 1, N-2
      do i = 1, N-4
        do m = 1, 3
          rhs(m,i+1,j,k) = rhs(m,i+1,j,k) - (%g/u(i,j,k))*rhs(m,i,j,k)
          rhs(m,i+1,j,k) = rhs(m,i+1,j,k) - (%g*spd(i,j,k))*rhs(m,i,j,k)
          rhs(m,i+2,j,k) = rhs(m,i+2,j,k) - %g*rhs(m,i,j,k)
        enddo
      enddo
      do i = 1, N-4
        do m = 4, 4
          rhs(m,i+1,j,k) = rhs(m,i+1,j,k) - (%g/(u(i,j,k) + spd(i,j,k)))*rhs(m,i,j,k)
          rhs(m,i+1,j,k) = rhs(m,i+1,j,k) - (%g*spd(i,j,k))*rhs(m,i,j,k)
          rhs(m,i+2,j,k) = rhs(m,i+2,j,k) - (%g*spd(i+1,j,k))*rhs(m,i,j,k)
        enddo
      enddo
      do i = 1, N-4
        do m = 5, 5
          rhs(m,i+1,j,k) = rhs(m,i+1,j,k) - (%g/(u(i,j,k) - spd(i,j,k)))*rhs(m,i,j,k)
          rhs(m,i+1,j,k) = rhs(m,i+1,j,k) - (%g*spd(i,j,k))*rhs(m,i,j,k)
          rhs(m,i+2,j,k) = rhs(m,i+2,j,k) - (%g*spd(i+1,j,k))*rhs(m,i,j,k)
        enddo
      enddo
      do i = N-4, 1, -1
        do m = 1, 3
          rhs(m,i,j,k) = rhs(m,i,j,k) - %g*rhs(m,i+1,j,k)
          rhs(m,i,j,k) = rhs(m,i,j,k) - %g*rhs(m,i+2,j,k)
        enddo
      enddo
      do i = N-4, 1, -1
        do m = 4, 5
          rhs(m,i,j,k) = rhs(m,i,j,k) - (%g*spd(i,j,k))*rhs(m,i+1,j,k)
          rhs(m,i,j,k) = rhs(m,i,j,k) - %g*rhs(m,i+2,j,k)
        enddo
      enddo
    enddo
  enddo
end

! y_solve: wavefronts along the first distributed dimension, again with
! the scalar and two acoustic systems of diagonalized ADI
subroutine y_solve(u, spd, rhs)
  real u(0:N-1, 0:N-1, 0:N-1)
  real spd(0:N-1, 0:N-1, 0:N-1)
  real rhs(1:5, 0:N-1, 0:N-1, 0:N-1)
  do j = 1, N-4
    do k = 1, N-2
      do i = 1, N-2
        do m = 1, 3
          rhs(m,i,j+1,k) = rhs(m,i,j+1,k) - (%g/u(i,j,k))*rhs(m,i,j,k)
          rhs(m,i,j+1,k) = rhs(m,i,j+1,k) - (%g*spd(i,j,k))*rhs(m,i,j,k)
          rhs(m,i,j+2,k) = rhs(m,i,j+2,k) - %g*rhs(m,i,j,k)
        enddo
      enddo
    enddo
  enddo
  do j = 1, N-4
    do k = 1, N-2
      do i = 1, N-2
        do m = 4, 4
          rhs(m,i,j+1,k) = rhs(m,i,j+1,k) - (%g/(u(i,j,k) + spd(i,j,k)))*rhs(m,i,j,k)
          rhs(m,i,j+1,k) = rhs(m,i,j+1,k) - (%g*spd(i,j,k))*rhs(m,i,j,k)
          rhs(m,i,j+2,k) = rhs(m,i,j+2,k) - (%g*spd(i,j+1,k))*rhs(m,i,j,k)
        enddo
      enddo
    enddo
  enddo
  do j = 1, N-4
    do k = 1, N-2
      do i = 1, N-2
        do m = 5, 5
          rhs(m,i,j+1,k) = rhs(m,i,j+1,k) - (%g/(u(i,j,k) - spd(i,j,k)))*rhs(m,i,j,k)
          rhs(m,i,j+1,k) = rhs(m,i,j+1,k) - (%g*spd(i,j,k))*rhs(m,i,j,k)
          rhs(m,i,j+2,k) = rhs(m,i,j+2,k) - (%g*spd(i,j+1,k))*rhs(m,i,j,k)
        enddo
      enddo
    enddo
  enddo
  do j = N-4, 1, -1
    do k = 1, N-2
      do i = 1, N-2
        do m = 1, 3
          rhs(m,i,j,k) = rhs(m,i,j,k) - %g*rhs(m,i,j+1,k)
          rhs(m,i,j,k) = rhs(m,i,j,k) - %g*rhs(m,i,j+2,k)
        enddo
      enddo
    enddo
  enddo
  do j = N-4, 1, -1
    do k = 1, N-2
      do i = 1, N-2
        do m = 4, 5
          rhs(m,i,j,k) = rhs(m,i,j,k) - (%g*spd(i,j,k))*rhs(m,i,j+1,k)
          rhs(m,i,j,k) = rhs(m,i,j,k) - %g*rhs(m,i,j+2,k)
        enddo
      enddo
    enddo
  enddo
end

! z_solve: wavefronts along the second distributed dimension, same
! three-system structure
subroutine z_solve(u, spd, rhs)
  real u(0:N-1, 0:N-1, 0:N-1)
  real spd(0:N-1, 0:N-1, 0:N-1)
  real rhs(1:5, 0:N-1, 0:N-1, 0:N-1)
  do k = 1, N-4
    do j = 1, N-2
      do i = 1, N-2
        do m = 1, 3
          rhs(m,i,j,k+1) = rhs(m,i,j,k+1) - (%g/u(i,j,k))*rhs(m,i,j,k)
          rhs(m,i,j,k+1) = rhs(m,i,j,k+1) - (%g*spd(i,j,k))*rhs(m,i,j,k)
          rhs(m,i,j,k+2) = rhs(m,i,j,k+2) - %g*rhs(m,i,j,k)
        enddo
      enddo
    enddo
  enddo
  do k = 1, N-4
    do j = 1, N-2
      do i = 1, N-2
        do m = 4, 4
          rhs(m,i,j,k+1) = rhs(m,i,j,k+1) - (%g/(u(i,j,k) + spd(i,j,k)))*rhs(m,i,j,k)
          rhs(m,i,j,k+1) = rhs(m,i,j,k+1) - (%g*spd(i,j,k))*rhs(m,i,j,k)
          rhs(m,i,j,k+2) = rhs(m,i,j,k+2) - (%g*spd(i,j,k+1))*rhs(m,i,j,k)
        enddo
      enddo
    enddo
  enddo
  do k = 1, N-4
    do j = 1, N-2
      do i = 1, N-2
        do m = 5, 5
          rhs(m,i,j,k+1) = rhs(m,i,j,k+1) - (%g/(u(i,j,k) - spd(i,j,k)))*rhs(m,i,j,k)
          rhs(m,i,j,k+1) = rhs(m,i,j,k+1) - (%g*spd(i,j,k))*rhs(m,i,j,k)
          rhs(m,i,j,k+2) = rhs(m,i,j,k+2) - (%g*spd(i,j,k+1))*rhs(m,i,j,k)
        enddo
      enddo
    enddo
  enddo
  do k = N-4, 1, -1
    do j = 1, N-2
      do i = 1, N-2
        do m = 1, 3
          rhs(m,i,j,k) = rhs(m,i,j,k) - %g*rhs(m,i,j,k+1)
          rhs(m,i,j,k) = rhs(m,i,j,k) - %g*rhs(m,i,j,k+2)
        enddo
      enddo
    enddo
  enddo
  do k = N-4, 1, -1
    do j = 1, N-2
      do i = 1, N-2
        do m = 4, 5
          rhs(m,i,j,k) = rhs(m,i,j,k) - (%g*spd(i,j,k))*rhs(m,i,j,k+1)
          rhs(m,i,j,k) = rhs(m,i,j,k) - %g*rhs(m,i,j,k+2)
        enddo
      enddo
    enddo
  enddo
end

! add: the warm-edit target — one statement, one constant
subroutine add(u, rhs)
  real u(0:N-1, 0:N-1, 0:N-1)
  real rhs(1:5, 0:N-1, 0:N-1, 0:N-1)
  do k = 2, N-3
    do j = 2, N-3
      do i = 2, N-3
        u(i,j,k) = u(i,j,k) + %g*(rhs(1,i,j,k) + rhs(2,i,j,k) + rhs(3,i,j,k) + rhs(4,i,j,k) + rhs(5,i,j,k))
      enddo
    enddo
  enddo
end

subroutine main()
  real u(0:N-1, 0:N-1, 0:N-1)
  real rho(0:N-1, 0:N-1, 0:N-1)
  real rhs(1:5, 0:N-1, 0:N-1, 0:N-1)
  real spd(0:N-1, 0:N-1, 0:N-1)

  call init(u, rho, spd, rhs)
  do step = 1, STEPS
    call compute_rhs(u, rho, rhs)
    call lhs(u, spd)
    call x_solve(u, spd, rhs)
    call y_solve(u, spd, rhs)
    call z_solve(u, spd, rhs)
    call add(u, rhs)
  enddo
end
`, n, steps, p1, p2,
		CoefDT, CoefDX,
		CoefCV,
		CoefFac, CoefSPD, CoefFw2, CoefFac2, CoefSPD, CoefFw2, CoefFac2, CoefSPD, CoefFw2, CoefBk1, CoefBk2, CoefBk1, CoefBk2,
		CoefFac, CoefSPD, CoefFw2, CoefFac2, CoefSPD, CoefFw2, CoefFac2, CoefSPD, CoefFw2, CoefBk1, CoefBk2, CoefBk1, CoefBk2,
		CoefFac, CoefSPD, CoefFw2, CoefFac2, CoefSPD, CoefFw2, CoefFac2, CoefSPD, CoefFw2, CoefBk1, CoefBk2, CoefBk1, CoefBk2,
		CoefAdd)
}
