"""Tabulate the attainable range of phi across quantile levels.

phi compares the four residual-sign cells against the independence
benchmark at a fixed tau, so its range depends on tau: the maximum is
always 1 (comonotone responses), but the minimum -min(tau/(1-tau),
(1-tau)/tau) only reaches -1 at the median.  The table prints the
bounds together with the cell probabilities of the limiting cases.
"""

from quantcord import phi, phi_bounds


def min_cells(tau):
    """Cells (00, 11, 01, 10) at the minimum: no "11" mass below the
    median, no "00" mass above it, the discordant cells filling the
    margins."""
    if tau <= 0.5:
        return (1 - 2 * tau, 0.0, tau, tau)
    return (0.0, 2 * tau - 1, 1 - tau, 1 - tau)


print("tau    phi_min   phi_max   cells at min (00,11,01,10)")
for tau in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95):
    bounds = phi_bounds(tau)
    low = min_cells(tau)
    cells = ", ".join(f"{p:.3f}" for p in low)
    print(
        f"{tau:.2f}   {bounds.phi_min:+.4f}   {bounds.phi_max:+.4f}   ({cells})"
    )

# sanity: phi recomputed from the limiting cells lands on the bound
check = phi(min_cells(0.25), 0.25)
print(f"\nphi of the tau=0.25 minimum cells: {check:+.6f} "
      f"(bound {phi_bounds(0.25).phi_min:+.6f})")
