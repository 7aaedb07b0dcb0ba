"""A reduced ordered binary decision diagram (ROBDD) package.

Provides the symbolic substrate for target enlargement (Section 3.4):
building characteristic functions of state sets, preimage computation
via relational products, and cube extraction for re-synthesizing
enlarged targets structurally.

Nodes are hash-consed triples ``(var, lo, hi)`` with terminal nodes
``ZERO`` and ``ONE``; ``lo`` is the ``var = 0`` cofactor.  Variables
are identified by their *level* (an integer): smaller levels are
tested first.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


class BDDNode:
    """An immutable BDD node; identity equals semantic equality."""

    __slots__ = ("var", "lo", "hi")

    def __init__(self, var: int, lo: "BDDNode", hi: "BDDNode") -> None:
        self.var = var
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        if self.lo is None:
            return f"<terminal {self.var}>"
        return f"<bdd v{self.var}>"


class BDD:
    """A BDD manager with unique and computed tables."""

    def __init__(self) -> None:
        self.zero = BDDNode(-1, None, None)
        self.one = BDDNode(-2, None, None)
        self._unique: Dict[Tuple[int, int, int], BDDNode] = {}
        self._ite_cache: Dict[Tuple[int, int, int], BDDNode] = {}
        self._quant_cache: Dict[Tuple, BDDNode] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def node(self, var: int, lo: BDDNode, hi: BDDNode) -> BDDNode:
        """The (reduced, hash-consed) node testing ``var``."""
        if lo is hi:
            return lo
        key = (var, id(lo), id(hi))
        found = self._unique.get(key)
        if found is None:
            found = BDDNode(var, lo, hi)
            self._unique[key] = found
        return found

    def var(self, level: int) -> BDDNode:
        """The function of the single variable at ``level``."""
        return self.node(level, self.zero, self.one)

    # ------------------------------------------------------------------
    # Core operation: if-then-else
    # ------------------------------------------------------------------
    def ite(self, f: BDDNode, g: BDDNode, h: BDDNode) -> BDDNode:
        """``f ? g : h`` — the universal BDD operation."""
        if f is self.one:
            return g
        if f is self.zero:
            return h
        if g is h:
            return g
        if g is self.one and h is self.zero:
            return f
        key = (id(f), id(g), id(h))
        found = self._ite_cache.get(key)
        if found is not None:
            return found
        top = min(x.var for x in (f, g, h) if x.lo is not None)
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        h0, h1 = self._cofactors(h, top)
        lo = self.ite(f0, g0, h0)
        hi = self.ite(f1, g1, h1)
        result = self.node(top, lo, hi)
        self._ite_cache[key] = result
        return result

    def _cofactors(self, f: BDDNode, var: int) -> Tuple[BDDNode, BDDNode]:
        if f.lo is None or f.var != var:
            return f, f
        return f.lo, f.hi

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------
    def not_(self, f: BDDNode) -> BDDNode:
        """Negation of ``f``."""
        return self.ite(f, self.zero, self.one)

    def and_(self, *fs: BDDNode) -> BDDNode:
        """Conjunction of the given functions."""
        out = self.one
        for f in fs:
            out = self.ite(out, f, self.zero)
        return out

    def or_(self, *fs: BDDNode) -> BDDNode:
        """Disjunction of the given functions."""
        out = self.zero
        for f in fs:
            out = self.ite(out, self.one, f)
        return out

    def xor(self, f: BDDNode, g: BDDNode) -> BDDNode:
        """Exclusive or of ``f`` and ``g``."""
        return self.ite(f, self.not_(g), g)

    def implies(self, f: BDDNode, g: BDDNode) -> BDDNode:
        """``f -> g``."""
        return self.ite(f, g, self.one)

    def equiv(self, f: BDDNode, g: BDDNode) -> BDDNode:
        """``f <-> g``."""
        return self.ite(f, g, self.not_(g))

    # ------------------------------------------------------------------
    # Quantification and substitution
    # ------------------------------------------------------------------
    def exists(self, variables: Iterable[int], f: BDDNode) -> BDDNode:
        """Existentially quantify ``variables`` out of ``f``."""
        var_set = frozenset(variables)
        return self._exists(var_set, f)

    def _exists(self, var_set: frozenset, f: BDDNode) -> BDDNode:
        if f.lo is None:
            return f
        key = ("E", var_set, id(f))
        found = self._quant_cache.get(key)
        if found is not None:
            return found
        lo = self._exists(var_set, f.lo)
        hi = self._exists(var_set, f.hi)
        if f.var in var_set:
            result = self.or_(lo, hi)
        else:
            result = self.node(f.var, lo, hi)
        self._quant_cache[key] = result
        return result

    def forall(self, variables: Iterable[int], f: BDDNode) -> BDDNode:
        """Universally quantify ``variables`` out of ``f``."""
        return self.not_(self.exists(variables, self.not_(f)))

    def and_exists(
        self, variables: Iterable[int], f: BDDNode, g: BDDNode
    ) -> BDDNode:
        """Relational product ``exists variables . f AND g``."""
        var_set = frozenset(variables)
        return self._and_exists(var_set, f, g)

    def _and_exists(self, var_set: frozenset, f: BDDNode,
                    g: BDDNode) -> BDDNode:
        if f is self.zero or g is self.zero:
            return self.zero
        if f is self.one and g is self.one:
            return self.one
        if f is self.one:
            return self._exists(var_set, g)
        if g is self.one:
            return self._exists(var_set, f)
        key = ("AE", var_set, id(f), id(g))
        found = self._quant_cache.get(key)
        if found is not None:
            return found
        top = min(x.var for x in (f, g) if x.lo is not None)
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        lo = self._and_exists(var_set, f0, g0)
        hi = self._and_exists(var_set, f1, g1)
        if top in var_set:
            result = self.or_(lo, hi)
        else:
            result = self.node(top, lo, hi)
        self._quant_cache[key] = result
        return result

    def compose(self, f: BDDNode, var: int, g: BDDNode) -> BDDNode:
        """Substitute function ``g`` for variable ``var`` in ``f``."""
        if f.lo is None:
            return f
        key = ("C", id(f), var, id(g))
        found = self._quant_cache.get(key)
        if found is not None:
            return found
        if f.var == var:
            result = self.ite(g, f.hi, f.lo)
        elif f.var > var:
            result = f
        else:
            lo = self.compose(f.lo, var, g)
            hi = self.compose(f.hi, var, g)
            result = self.ite(self.var(f.var), hi, lo)
        self._quant_cache[key] = result
        return result

    def rename(self, f: BDDNode, mapping: Dict[int, int]) -> BDDNode:
        """Rename variables; mapping must be order-preserving."""
        if f.lo is None:
            return f
        items = sorted(mapping.items())
        levels = [a for a, _ in items]
        images = [b for _, b in items]
        if images != sorted(images):
            raise ValueError("rename mapping must preserve variable order")
        return self._rename(f, mapping)

    def _rename(self, f: BDDNode, mapping: Dict[int, int]) -> BDDNode:
        if f.lo is None:
            return f
        key = ("R", id(f), tuple(sorted(mapping.items())))
        found = self._quant_cache.get(key)
        if found is not None:
            return found
        lo = self._rename(f.lo, mapping)
        hi = self._rename(f.hi, mapping)
        result = self.node(mapping.get(f.var, f.var), lo, hi)
        self._quant_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def evaluate(self, f: BDDNode, assignment: Dict[int, bool]) -> bool:
        """Evaluate ``f`` under a total assignment of its support."""
        node = f
        while node.lo is not None:
            node = node.hi if assignment.get(node.var, False) else node.lo
        return node is self.one

    def support(self, f: BDDNode) -> List[int]:
        """Sorted list of variable levels ``f`` depends on."""
        out = set()
        seen = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if id(node) in seen or node.lo is None:
                continue
            seen.add(id(node))
            out.add(node.var)
            stack.append(node.lo)
            stack.append(node.hi)
        return sorted(out)

    def count_nodes(self, f: BDDNode) -> int:
        """Number of internal nodes of ``f``."""
        seen = set()
        stack = [f]
        count = 0
        while stack:
            node = stack.pop()
            if id(node) in seen or node.lo is None:
                continue
            seen.add(id(node))
            count += 1
            stack.append(node.lo)
            stack.append(node.hi)
        return count

    def sat_count(self, f: BDDNode, num_vars: int) -> int:
        """Number of satisfying assignments over ``num_vars`` variables
        at levels ``0 .. num_vars - 1``."""
        cache: Dict[int, int] = {}

        def walk(node: BDDNode, level: int) -> int:
            if node is self.zero:
                return 0
            if node is self.one:
                return 1 << (num_vars - level)
            key = (id(node), level)
            if key in cache:
                return cache[key]
            skip = node.var - level
            total = (walk(node.lo, node.var + 1)
                     + walk(node.hi, node.var + 1)) << skip
            cache[key] = total
            return total

        return walk(f, 0)

    def pick_cube(self, f: BDDNode) -> Optional[Dict[int, bool]]:
        """One satisfying partial assignment, or None if ``f`` is zero."""
        if f is self.zero:
            return None
        cube: Dict[int, bool] = {}
        node = f
        while node.lo is not None:
            if node.lo is not self.zero:
                cube[node.var] = False
                node = node.lo
            else:
                cube[node.var] = True
                node = node.hi
        return cube

    def cubes(self, f: BDDNode) -> List[Dict[int, bool]]:
        """All prime-path cubes of ``f`` (one per 1-path of the DAG)."""
        out: List[Dict[int, bool]] = []

        def walk(node: BDDNode, partial: Dict[int, bool]) -> None:
            if node is self.zero:
                return
            if node is self.one:
                out.append(dict(partial))
                return
            partial[node.var] = False
            walk(node.lo, partial)
            partial[node.var] = True
            walk(node.hi, partial)
            del partial[node.var]

        walk(f, {})
        return out
