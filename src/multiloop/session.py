"""Session specs: one JSON document describing an algebra, a twist and windows."""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import lcm

from .cyclotomic import CyclotomicField
from .descent import LoopAlgebra, TwistedLoopAlgebra
from .errors import MismatchError, SpecError, StructureError
from .extension import CentralExtension
from .laurent import LaurentRing
from .liealg import (
    LieAutomorphism,
    build_algebra,
    diagram_automorphism,
    identity_automorphism,
)
from .rootsystem import POSITIVE_ROOT_COUNTS

VALID_FAMILIES = "ABCDEFG"

# the largest conductor lcm(orders) a spec may declare: set-up works in
# Q(zeta_M) of degree phi(M) and splits g into M eigenspaces, so its cost
# grows quickly with M, and a conductor in the thousands never finishes
MAX_CONDUCTOR = 60
# the largest dim g a spec may declare, that of E8: set-up grows steeply with it
MAX_DIM = 248
# the largest window a spec may ask for, at w = window + margin (the
# perfectness factors) or at a generator window, on two counts: the (2w + 1)^n
# degrees of the box |degree| <= w, which every suite walks, and its basis, at
# most dim g * prod_i ceil((2w + 1) / m_i) vectors, which `jacobi` and the H2
# assembly walk in pairs, so a window of 10**9 or a thousand loop variables
# never finishes, whatever the loop orders.  2**15 admits A2 in two variables
# at window 24, 8 * 51**2 = 20,808 basis vectors.
MAX_WINDOW_BASIS = 2**15


def _integer(value) -> int:
    # JSON true/false would otherwise pass int() as 1/0, int() truncates 2.7,
    # and int() parses the string "2"
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _list(value) -> list:
    # list() of a string or an object would read its characters or keys
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


@dataclass(frozen=True)
class SessionSpec:
    """An algebra, a twist and the windows to check them on.

    A spec is immutable and valid by construction: `__post_init__` runs
    `validate`, so an override is `dataclasses.replace(spec, window=w)`,
    which validates again."""

    family: str
    rank: int
    autos: list
    orders: tuple
    window: int = 2
    margin: int = 1
    seed: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "SessionSpec":
        # the fields are read inside the try and the spec is built outside it:
        # SpecError is a ValueError, and a refusal keeps its own message
        try:
            algebra = data["algebra"]
            fields = dict(
                family=str(algebra["family"]).upper(),
                rank=_integer(algebra["rank"]),
                autos=list(_list(data["autos"])),
                orders=tuple(_integer(m) for m in _list(data["orders"])),
                window=_integer(data.get("window", 2)),
                margin=_integer(data.get("margin", 1)),
                seed=_integer(data.get("seed", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"malformed session spec: {exc}") from exc
        return cls(**fields)

    def __post_init__(self):
        self.validate()

    def validate(self):
        if len(self.family) != 1 or self.family not in VALID_FAMILIES:
            raise SpecError(f"unknown family {self.family!r}: expected one letter A-G")
        if self.rank < 1:
            raise SpecError(f"rank must be positive, got {self.rank}")
        dim = self._dim()
        if self.family in "ABCD" and dim > MAX_DIM:
            raise SpecError(f"{self.family}{self.rank} has dim {dim}, over MAX_DIM = {MAX_DIM}")
        if len(self.autos) != len(self.orders):
            raise SpecError(
                f"{len(self.autos)} automorphisms declared for {len(self.orders)} orders"
            )
        if not self.orders:
            raise SpecError("at least one loop variable is required")
        if any(m < 1 for m in self.orders):
            raise SpecError(f"orders must be positive, got {self.orders}")
        conductor = lcm(*self.orders)
        if conductor > MAX_CONDUCTOR:
            raise SpecError(
                f"conductor {conductor} = lcm of orders {list(self.orders)} is over "
                f"the limit MAX_CONDUCTOR = {MAX_CONDUCTOR}"
            )
        if self.window < 1:
            raise SpecError(f"window must be >= 1, got {self.window}")
        if self.margin < 0:
            raise SpecError(f"margin must be >= 0, got {self.margin}")
        self.check_window(self.window + self.margin)
        for a in self.autos:
            if not isinstance(a, dict):
                raise SpecError(f"automorphism spec must be an object, got {a!r}")
            kind = a.get("kind")
            if kind == "diagram":
                if "perm" not in a:
                    raise SpecError("diagram automorphism spec needs a perm")
            elif kind == "matrix":
                if "entries" not in a or "order" not in a:
                    raise SpecError("matrix automorphism spec needs entries and order")
                try:
                    order = _integer(a["order"])
                except (TypeError, ValueError) as exc:
                    raise SpecError(f"invalid automorphism spec {a}: {exc}") from exc
                if order > MAX_CONDUCTOR:  # a usable order divides a loop order
                    raise SpecError(f"matrix order {order} is over MAX_CONDUCTOR = {MAX_CONDUCTOR}")
            elif kind != "identity":
                raise SpecError(f"unknown automorphism kind {kind!r}")

    def _dim(self):
        """dim g = 2 |positive roots| + rank, or None for an E of a rank the
        build refuses (it also refuses an F or a G of another rank)."""
        try:
            return 2 * POSITIVE_ROOT_COUNTS[self.family](self.rank) + self.rank
        except KeyError:
            return None

    def check_window(self, window: int):
        """Refuse a window over MAX_WINDOW_BASIS, before anything is built: the
        box |degree| <= window has (2 window + 1)^n degrees, and its basis at
        most dim g * prod_i ceil((2 window + 1) / m_i) vectors, as the box
        holds at most ceil((2 window + 1) / m_i) values of degree_i in one
        residue mod m_i and the components of the residues split g."""
        size = self._dim()
        if size is None:
            return
        width = 2 * window + 1
        n = len(self.orders)
        degrees = 1
        for m in self.orders:  # stops at the first factor over the limit
            size *= -(-width // m)
            degrees *= width
            if size > MAX_WINDOW_BASIS:
                raise SpecError(
                    f"the box |degree| <= {window} of {self.family}{self.rank} with "
                    f"n = {n} has up to dim g * prod_i ceil({width} / m_i) "
                    f"basis vectors, over MAX_WINDOW_BASIS = {MAX_WINDOW_BASIS}"
                )
            if degrees > MAX_WINDOW_BASIS:
                raise SpecError(
                    f"the box |degree| <= {window} with n = {n} has {width}^{n} "
                    f"degrees, over MAX_WINDOW_BASIS = {MAX_WINDOW_BASIS}"
                )

    def to_dict(self) -> dict:
        return {
            "algebra": {"family": self.family, "rank": self.rank},
            "autos": self.autos,
            "orders": list(self.orders),
            "window": self.window,
            "margin": self.margin,
            "seed": self.seed,
        }


def load_spec(path: str) -> SessionSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {path} is not valid JSON: {exc}") from exc
    return SessionSpec.from_dict(data)


class Session:
    """All built objects for one spec: field, algebra, twist, extension."""

    def __init__(self, spec: SessionSpec):
        self.spec = spec
        conductor = lcm(*spec.orders)
        self.field = CyclotomicField(conductor)
        try:
            self.algebra = build_algebra(spec.family, spec.rank, self.field)
        except StructureError as exc:
            raise SpecError(str(exc)) from exc
        self.sigmas = []
        for a in spec.autos:
            try:
                self.sigmas.append(self._build_auto(a))
            except SpecError:
                raise
            except (StructureError, ValueError, TypeError) as exc:
                raise SpecError(f"invalid automorphism spec {a}: {exc}") from exc
        self.ring = LaurentRing(self.field, spec.orders)
        try:
            self.twisted = TwistedLoopAlgebra(
                LoopAlgebra(self.algebra, self.ring), self.sigmas, spec.orders
            )
        except (StructureError, MismatchError) as exc:
            raise SpecError(str(exc)) from exc
        self.ext = CentralExtension(self.twisted)

    def _build_auto(self, data: dict) -> LieAutomorphism:
        kind = data["kind"]
        if kind == "identity":
            return identity_automorphism(self.algebra)
        if kind == "diagram":
            return diagram_automorphism(
                self.algebra, [_integer(p) for p in _list(data["perm"])]
            )
        entries = [_list(row) for row in _list(data["entries"])]
        dim = self.algebra.dim
        if len(entries) != dim or any(len(r) != dim for r in entries):
            raise SpecError(
                f"matrix automorphism must be {dim}x{dim} for {self.spec.family}{self.spec.rank}"
            )
        parse = self.field.parse
        columns = [
            [
                parse(str(entries[i][j])) if type(entries[i][j]) is not int
                else self.field.scalar(entries[i][j])
                for i in range(dim)
            ]
            for j in range(dim)
        ]
        return LieAutomorphism(self.algebra, columns, order=_integer(data["order"]))

    # -- summaries -----------------------------------------------------------

    def info(self) -> dict:
        from .kaehler import central_slots
        from .laurent import box_degrees
        from .liealg import is_central_simple

        eig = self.twisted.eigen
        eigendims = {
            ",".join(str(c) for c in res): d for res, d in eig.dims().items()
        }
        g0 = [list(v) for v in self.twisted.g0_basis()]
        omega = {}
        for deg in box_degrees(self.ring.n, self.spec.window):
            if self.ring.in_base_lattice(deg):
                omega[",".join(str(c) for c in deg)] = len(central_slots(self.ring, deg))
        return {
            "dim_g": self.algebra.dim,
            "eigendims": eigendims,
            "g0_dim": len(g0),
            "g0_central_simple": is_central_simple(self.algebra, g0),
            "omega_r_dims": omega,
            "conductor": self.field.conductor,
        }
