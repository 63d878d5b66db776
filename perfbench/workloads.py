"""The benchmark workloads: the polymer-lab CLI commands each one runs, and the
work counts computed from their configuration.

mc-d1 is the plain single-process sampler baseline (top grid point of
acceptance check 6), mc-d2-pool is the only workload through the process pool
(the acceptance d=2 grid at two workers), and oracle-exact is the exact-moment
work done before a sweep: it makes no environment, sampler or pool call.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Simulate:
    """One `polymer-lab simulate` command; the master seed comes from --seed."""

    d: int
    grid: tuple[int, ...]
    eps: str
    threads: int
    replicas: int

    def argv(self, seed: int) -> list[str]:
        horizons = [arg for n in self.grid for arg in ("--N", str(n))]
        return [
            "simulate", "--dim", str(self.d), *horizons, "--eps", self.eps,
            "--threads", str(self.threads), "--replicas", str(self.replicas),
            "--seed", str(seed),
        ]

    def items(self) -> int:
        return self.replicas * len(self.grid)


@dataclass(frozen=True)
class Exact:
    """One `polymer-lab oracle` or `clt` command; these take no seed."""

    command: str
    d: int
    grid: tuple[int, ...]
    eps: str

    def argv(self, seed: int) -> list[str]:
        horizons = [arg for n in self.grid for arg in ("--N", str(n))]
        return [self.command, "--dim", str(self.d), *horizons, "--eps", self.eps]

    def items(self) -> int:
        return len(self.grid)


WORKLOADS: dict[str, tuple] = {
    "mc-d1": (Simulate(d=1, grid=(4096,), eps="0.05", threads=1, replicas=8),),
    "mc-d2-pool": (Simulate(d=2, grid=(64, 128, 256), eps="0.25", threads=2, replicas=4),),
    "oracle-exact": (
        Exact("oracle", d=2, grid=(128, 256, 512), eps="0.25"),
        Exact("clt", d=2, grid=(128, 256, 512), eps="0.25"),
        Exact("oracle", d=1, grid=(4096,), eps="0.05"),
    ),
}


def slice_sites(d: int, n: int) -> int:
    """Parity-valid sites of the packed slice at time n."""
    return n + 1 if d == 1 else (n + 1) * (n + 1)


def cone_sites(d: int, horizon: int) -> int:
    """Sites of all slices 1..horizon: one sampler replica, or one rolling pass."""
    return sum(slice_sites(d, n) for n in range(1, horizon + 1))


def computed_counts(commands) -> dict[str, int]:
    """Work counts derived from the configuration alone, not measured.

    sites_hashed: every replica hashes each slice of its cone once.
    stencil_site_updates: every replica steps each slice once, and every grid
    point of simulate, oracle and the report phase makes one rolling
    collision-moment pass to its N (the moment cache grows along the
    ascending grid).  Dense kernel builds are left out: pool workers build
    one each when they first get work, which is not deterministic.
    kernel_bytes: the dense transition kernel one sampling process holds at
    the largest N.
    """
    hashed = stencil = kernel = 0
    for cmd in commands:
        if isinstance(cmd, Simulate):
            replica_sites = sum(cone_sites(cmd.d, n) for n in cmd.grid)
            hashed += cmd.replicas * replica_sites
            stencil += cmd.replicas * replica_sites
            count = max(cmd.grid) + 1
            entries = count * (count + 1) // 2 if cmd.d == 1 else (
                count * (count + 1) * (2 * count + 1) // 6
            )
            kernel = max(kernel, 8 * entries)
        if isinstance(cmd, Simulate) or cmd.command == "oracle":
            stencil += sum(cone_sites(cmd.d, n) for n in cmd.grid)
    return {
        "environment.sites_hashed": hashed,
        "walk.stencil_site_updates": stencil,
        "walk.kernel_bytes": kernel,
    }
