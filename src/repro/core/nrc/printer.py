"""Pretty-printer for NRC expressions.

Renders a readable, roughly CPL-flavoured text form, used by ``__repr__`` on
AST nodes, by the optimizer's explain output, and in error messages.
"""

from __future__ import annotations

from . import ast as A

__all__ = ["pretty_expr"]


def pretty_expr(expr: "A.Expr") -> str:
    """Return a single-line textual rendering of ``expr``."""
    return _Printer().render(expr)


class _Printer:

    def render(self, expr: "A.Expr") -> str:
        method = getattr(self, f"_render_{type(expr).__name__.lower()}", None)
        if method is None:
            return f"<{type(expr).__name__}>"
        return method(expr)

    def _render_const(self, expr: "A.Const") -> str:
        value = expr.value
        if isinstance(value, str):
            return f'"{value}"'
        if isinstance(value, bool):
            return "true" if value else "false"
        return repr(value)

    def _render_var(self, expr: "A.Var") -> str:
        return expr.name

    def _render_lam(self, expr: "A.Lam") -> str:
        return f"\\{expr.param} => {self.render(expr.body)}"

    def _render_apply(self, expr: "A.Apply") -> str:
        return f"{self.render(expr.func)}({self.render(expr.arg)})"

    def _render_recordexpr(self, expr: "A.RecordExpr") -> str:
        inner = ", ".join(f"{label} = {self.render(value)}" for label, value in expr.fields.items())
        return f"[{inner}]"

    def _render_project(self, expr: "A.Project") -> str:
        return f"{self.render(expr.expr)}.{expr.label}"

    def _render_variantexpr(self, expr: "A.VariantExpr") -> str:
        return f"<{expr.tag} = {self.render(expr.expr)}>"

    def _render_case(self, expr: "A.Case") -> str:
        branches = " | ".join(
            f"<{branch.tag} = \\{branch.var}> => {self.render(branch.body)}"
            for branch in expr.branches
        )
        default = ""
        if expr.default is not None:
            var, body = expr.default
            default = f" | \\{var} => {self.render(body)}"
        return f"case {self.render(expr.subject)} of {branches}{default}"

    _BRACKETS = {"set": ("{", "}"), "bag": ("{|", "|}"), "list": ("[|", "|]")}

    def _render_empty(self, expr: "A.Empty") -> str:
        open_b, close_b = self._BRACKETS[expr.kind]
        return f"{open_b}{close_b}"

    def _render_singleton(self, expr: "A.Singleton") -> str:
        open_b, close_b = self._BRACKETS[expr.kind]
        return f"{open_b}{self.render(expr.expr)}{close_b}"

    def _render_union(self, expr: "A.Union") -> str:
        return f"({self.render(expr.left)} U {self.render(expr.right)})"

    def _render_ext(self, expr: "A.Ext") -> str:
        open_b, close_b = self._BRACKETS[expr.kind]
        return (f"U{open_b}{self.render(expr.body)} | \\{expr.var} <- "
                f"{self.render(expr.source)}{close_b}")

    def _render_parallelext(self, expr) -> str:
        return f"par[{expr.max_workers}]-{self._render_ext(expr)}"

    def _render_bindscan(self, expr: "A.BindScan") -> str:
        return (f"bind[{expr.max_workers}](\\{expr.var} => {self.render(expr.body)}"
                f" | {self.render(expr.source)})")

    def _render_fold(self, expr: "A.Fold") -> str:
        return (f"fold({self.render(expr.func)}, {self.render(expr.init)}, "
                f"{self.render(expr.source)})")

    def _render_ifthenelse(self, expr: "A.IfThenElse") -> str:
        return (f"if {self.render(expr.cond)} then {self.render(expr.then_branch)} "
                f"else {self.render(expr.else_branch)}")

    def _render_primcall(self, expr: "A.PrimCall") -> str:
        if expr.name == "index" and len(expr.args) == 1:
            keyed = self._keyed_rows(expr.args[0])
            if keyed is not None:
                return keyed
        args = ", ".join(self.render(arg) for arg in expr.args)
        return f"{expr.name}({args})"

    def _keyed_rows(self, rows: "A.Expr"):
        """``index(S by \\y => key where f, ..)`` for the caching stage's
        ``index(U[| if f then .. [|[key = key, row = y]|] .. | \\y <- S |])``."""
        parts = A.keyed_rows_parts(rows)
        if parts is None:
            return None
        var, source, filters, key = parts
        where = f" where {', '.join(map(self.render, filters))}" if filters else ""
        return f"index({self.render(source)} by \\{var} => {self.render(key)}{where})"

    def _render_let(self, expr: "A.Let") -> str:
        # The caching stage's guarded probe, ``let i = INDEX in if isempty(i)
        # then {} else probe(i, key)``, reads as what it computes.
        probed = A.guarded_probe_parts(expr)
        if probed is not None:
            return f"probe({self.render(probed[0])}, {self.render(probed[1])})"
        return f"let {expr.var} = {self.render(expr.value)} in {self.render(expr.body)}"

    def _render_deref(self, expr: "A.Deref") -> str:
        return f"!{self.render(expr.expr)}"

    def _render_scan(self, expr: "A.Scan") -> str:
        request = ", ".join(f"{key}={value!r}" for key, value in sorted(expr.request.items()))
        args = ""
        if expr.args:
            args = "; " + ", ".join(f"{key}={self.render(value)}" for key, value in expr.args.items())
        return f"scan[{expr.driver}]({request}{args})"

    def _render_cached(self, expr: "A.Cached") -> str:
        return f"cached({self.render(expr.expr)})"

    def _render_memo(self, expr: "A.Memo") -> str:
        keys = ", ".join(self.render(key) for key in expr.keys)
        return f"memo[{keys}]({self.render(expr.expr)})"
