"""Idiom replacement: cut the matched loops out, call the API instead.

Implements paper §6 as **contract-driven lowering** over the structural
:class:`~repro.transform.region.Region` layer: for every
:class:`IdiomMatch` the transformer

1. extracts the region (loop nest, preheader/exit, escape verification —
   see :mod:`repro.transform.region`),
2. resolves a :class:`~repro.backends.registry.LoweringContract` for the
   idiom's category from the backend registry — the match must supply
   every solution key the contract requires, and the contract supplies
   the numeric kernels the handler computes with (no hard-coded backend
   imports),
3. extracts kernel functions (for reductions/histograms/stencils) into
   portable kernel expressions,
4. registers a runtime handler with the :class:`ApiRuntime`, annotated
   with its read/write pointer-argument schema (the residency planner's
   buffer-access model),
5. rewires the CFG: idioms with a scalar result bypass the loop outright;
   void idioms in singleton groups whose region admits it (phi-free exit,
   unconditional preheader fall-through) get the paper §6.3 **guarded
   multi-version** — a runtime aliasing check that falls back to the
   intact original loop when the handler's buffers might overlap
   (``site.guarded``). Shared-loop groups and irregular regions keep the
   seed's unguarded replacement, accepted as unsound in corner cases
   exactly as the paper concedes.

A group that fails any check raises :class:`TransformError` *before* the
function is mutated; :meth:`Transformer.apply` records the rejection and
leaves the original loop bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.info import FunctionAnalyses
from ..backends.api import ApiCallSite, ApiRuntime
from ..backends.registry import (
    BackendRegistry,
    LoweringContract,
    default_registry,
)
from ..errors import TransformError
from ..idioms.matches import IdiomMatch
from ..ir.instructions import Instruction
from ..ir.module import Function, Module
from ..ir.types import ArrayType, PointerType
from ..ir.values import ConstantInt, Value
from ..passes.dce import eliminate_dead_code
from ..passes.simplifycfg import remove_unreachable_blocks
from ..runtime.memory import Pointer
from .kernels import KernelExtractor, match_accumulator_form
from .region import Region, make_alias_guard


@dataclass
class AppliedTransform:
    match: IdiomMatch
    site: ApiCallSite
    function: Function


@dataclass
class RejectedTransform:
    """A match the transformer refused; its loop is left untouched."""

    match: IdiomMatch
    reason: str


class Transformer:
    """Applies idiom replacements to a module.

    ``backends`` restricts which registry entries may lower matches;
    ``None`` means all registered backends.
    """

    def __init__(self, module: Module, runtime: ApiRuntime,
                 registry: BackendRegistry | None = None,
                 backends: list[str] | None = None):
        self.module = module
        self.runtime = runtime
        self.registry = registry if registry is not None \
            else default_registry()
        self.backends = list(backends) if backends is not None else None
        # Unknown backend names fail here, before any group is touched —
        # a mid-apply BackendError would leave the module half-transformed.
        self.registry.entries(self.backends)
        self.rejected: list[RejectedTransform] = []

    def apply(self, matches: list[IdiomMatch]) -> list[AppliedTransform]:
        """Matches sharing one loop (EP's histogram + conditional sum)
        are replaced jointly: one call per idiom, one loop rewiring.
        Groups that fail validation are skipped (recorded in
        ``self.rejected``) with their original loops intact."""
        groups: dict[tuple, list[IdiomMatch]] = {}
        for match in matches:
            iterator = match.value("iterator") or match.value("iterator[0]")
            key = (id(match.function), id(iterator))
            groups.setdefault(key, []).append(match)
        applied = []
        for group in groups.values():
            try:
                applied.extend(self.apply_group(group))
            except TransformError as exc:
                for match in group:
                    self.rejected.append(RejectedTransform(match, str(exc)))
        return applied

    def apply_group(self, group: list[IdiomMatch]) -> list[AppliedTransform]:
        function = group[0].function
        analyses = FunctionAnalyses(function)
        builders = [_SiteBuilder(m, function, analyses, self.registry,
                                 self.backends,
                                 quarantine=self.runtime.quarantine)
                    for m in group]
        # Values produced by sibling idioms in the same loop are not
        # escapes — their out-of-loop uses get each sibling's call result.
        shared = [b.expected_result() for b in builders]
        shared = [v for v in shared if v is not None]
        # Building validates (escapes, dominance, contracts) without
        # mutating the function: a TransformError here leaves the loop
        # bit-identical to the original. Sites already registered for
        # earlier members of a failing group are discarded so the runtime
        # never carries orphan call sites.
        sites: list[ApiCallSite] = []
        try:
            for builder in builders:
                sites.append(builder.build(self.runtime,
                                           allowed_escapes=shared))
        except TransformError:
            for site in sites:
                self.runtime.discard(site)
            raise
        only = builders[0]
        if len(builders) == 1 and only.result_value is None \
                and sites[0].writes and sites[0].reads \
                and only.region.can_guard():
            guard = self.runtime.new_guard(
                sites[0], make_alias_guard(sites[0].reads, sites[0].writes))
            only.region.insert_guarded_call(sites[0], guard)
            sites[0].guarded = True
        else:
            for builder, site in zip(builders, sites):
                builder.region.insert_call(site, builder.result_value)
            only.region.bypass_loop()
        remove_unreachable_blocks(function)
        eliminate_dead_code(function)
        return [AppliedTransform(m, s, function)
                for m, s in zip(group, sites)]


class _SiteBuilder:
    """Lowers one match under a registry contract, via its Region."""

    def __init__(self, match: IdiomMatch, function: Function,
                 analyses: FunctionAnalyses, registry: BackendRegistry,
                 backends: list[str] | None, quarantine=None):
        self.match = match
        self.function = function
        self.registry = registry
        self.backends = backends
        self.quarantine = quarantine
        self.region = Region(match, function, analyses)
        self.result_value: Value | None = None  # SSA value the call replaces

    @property
    def args(self) -> list[Value]:
        return self.region.args

    def _arg(self, value: Value) -> int:
        return self.region.arg(value)

    def _check_escapes(self, allowed: list[Value]) -> None:
        self.region.check_escapes(allowed + self._shared_escapes)

    def expected_result(self) -> Value | None:
        """The SSA value this idiom's call will replace (if any)."""
        if self.match.idiom == "Reduction":
            return self.match.solution.get("old_value")
        return None

    def _contract(self, category: str) -> LoweringContract:
        """First registered, non-quarantined contract the match satisfies."""
        contracts = self.registry.contracts_for(category, self.backends,
                                                quarantine=self.quarantine)
        if not contracts:
            scope = "" if self.backends is None else \
                f" with backends limited to {', '.join(self.backends)}"
            if self.quarantine is not None and self.quarantine.quarantined():
                scope += " (quarantined: " + ", ".join(
                    f"{b}/{c}" for b, c in self.quarantine.quarantined()) \
                    + ")"
            raise TransformError(
                f"no registered backend lowers {category!r}{scope}")
        solution = self.match.solution
        for contract in contracts:
            if contract.satisfied_by(solution):
                return contract
        first = contracts[0]
        raise TransformError(
            f"match for {category!r} satisfies no lowering contract "
            f"(e.g. {first.backend!r} needs {first.missing(solution)})")

    # -- dispatch -------------------------------------------------------------
    def build(self, runtime: ApiRuntime,
              allowed_escapes: list[Value] | None = None) -> ApiCallSite:
        self._shared_escapes = list(allowed_escapes or [])
        idiom = self.match.idiom
        if idiom == "Reduction":
            return self._build_reduction(runtime)
        if idiom == "Histogram":
            return self._build_histogram(runtime)
        if idiom == "SPMV":
            return self._build_spmv(runtime)
        if idiom == "GEMM":
            return self._build_gemm(runtime)
        if idiom.startswith("Stencil"):
            return self._build_stencil(runtime)
        raise TransformError(f"no transformation for idiom {idiom!r}")

    # -- shared helpers ----------------------------------------------------------
    def _read_pointer_base(self, prefix: str) -> Value:
        """The loop-invariant pointer the final index gep applies to."""
        sol = self.match.solution
        address = sol.get(f"{prefix}.address")
        if not isinstance(address, Instruction):
            raise TransformError(f"{prefix}: no address gep in solution")
        return address.operands[0]

    def _extractor(self, inputs: list[Value], outer_key: str = "begin",
                   inner_key: str = "body.begin") -> KernelExtractor:
        sol = self.match.solution
        outer = sol[outer_key]
        inner = sol[inner_key]
        return KernelExtractor(self.region.analyses, outer, inner, inputs)

    def _range_args(self, begin_key: str, end_key: str) -> tuple[int, int]:
        sol = self.match.solution
        return self._arg(sol[begin_key]), self._arg(sol[end_key])

    # -- Reduction -----------------------------------------------------------------
    def _build_reduction(self, runtime: ApiRuntime) -> ApiCallSite:
        contract = self._contract("scalar_reduction")
        compile_kernel = contract.kernels["compile"]
        sol = self.match.solution
        old_value = sol["old_value"]
        self.result_value = old_value
        self._check_escapes([old_value])

        reads = self.match.family("read_value")
        inputs = reads + [old_value]
        extractor = self._extractor(inputs)
        kernel = extractor.extract(sol["kernel.output"])
        acc_index = len(reads)
        fast = match_accumulator_form(kernel.expr, acc_index)
        # The closed form evaluates only the delta; the per-element loop
        # evaluates the whole update.
        if fast is not None:
            kind, compiled = fast[0], compile_kernel(fast[1])
        else:
            kind, compiled = None, compile_kernel(kernel.expr)

        i_begin = self._arg(sol["iter_begin"])
        i_end = self._arg(sol["iter_end"])
        i_init = self._arg(sol["ind_init"])
        cap_lo = len(self.args)
        for cap in kernel.captures:
            self._arg(cap)
        cap_hi = len(self.args)
        ptr_lo = len(self.args)
        for i in range(len(reads)):
            self._arg(self._read_pointer_base(f"read[{i}]"))

        n_reads = len(reads)

        def handler(args, interpreter, _site=[None]):
            begin, end, init = args[i_begin], args[i_end], args[i_init]
            caps = list(args[cap_lo:cap_hi])
            n = max(0, int(end) - int(begin))
            site = _site[0]
            site.stats["calls"] = site.stats.get("calls", 0) + 1
            site.stats["elements"] = site.stats.get("elements", 0) + n
            site.stats["bytes"] = site.stats.get("bytes", 0) + \
                8 * n * max(1, n_reads)
            if n == 0:
                return init
            views = []
            for p in range(n_reads):
                pointer = args[ptr_lo + p]
                views.append(pointer.view()[int(begin):int(end)])
            params = views + [None]
            if kind is not None:
                arr = _lanes(compiled(params, caps), n)
                if kind == "sum":
                    return init + arr.sum()
                if kind == "max":
                    return max(init, arr.max())
                return min(init, arr.min())
            acc = init
            for i in range(n):
                params_i = [v[i] for v in views] + [acc]
                acc = compiled(params_i, caps)
            return acc

        site = runtime.new_site(
            "Reduction", "scalar_reduction", handler,
            f"reduction in @{self.function.name}",
            backend=contract.backend,
            reads=tuple(range(ptr_lo, ptr_lo + n_reads)))
        handler.__defaults__[0][0] = site
        site.stats["reads_per_element"] = n_reads
        site.stats["flops_per_element"] = _expr_flops(kernel.expr)
        return site

    # -- Histogram -----------------------------------------------------------------
    def _build_histogram(self, runtime: ApiRuntime) -> ApiCallSite:
        contract = self._contract("histogram_reduction")
        compile_kernel = contract.kernels["compile"]
        sol = self.match.solution
        self._check_escapes([])

        reads = self.match.family("read_value")
        old_value = sol["old_value"]
        value_inputs = reads + [old_value]
        acc_index = len(reads)

        extractor = self._extractor(value_inputs)
        value_kernel = extractor.extract(sol["kernel.output"])
        index_kernel = extractor.extract(sol["indexkernel.output"])
        guard = extractor.extract_guard(sol["store"])
        fast = match_accumulator_form(value_kernel.expr, acc_index)
        if fast is not None and fast[0] == "sum":
            delta_of, update = compile_kernel(fast[1]), None
        else:
            delta_of, update = None, compile_kernel(value_kernel.expr)
        index_of = compile_kernel(index_kernel.expr)
        mask_of = compile_kernel(guard) if guard is not None else None

        i_begin = self._arg(sol["iter_begin"])
        i_end = self._arg(sol["iter_end"])
        bin_arg = self._arg(sol["base_pointer"])
        cap_lo = len(self.args)
        for cap in extractor.captures:
            self._arg(cap)
        cap_hi = len(self.args)
        ptr_lo = len(self.args)
        for i in range(len(reads)):
            self._arg(self._read_pointer_base(f"read[{i}]"))
        n_reads = len(reads)

        def handler(args, interpreter, _site=[None]):
            begin, end = int(args[i_begin]), int(args[i_end])
            caps = list(args[cap_lo:cap_hi])
            bins: Pointer = args[bin_arg]
            n = max(0, end - begin)
            site = _site[0]
            site.stats["calls"] = site.stats.get("calls", 0) + 1
            site.stats["elements"] = site.stats.get("elements", 0) + n
            site.stats["bytes"] = site.stats.get("bytes", 0) + \
                8 * n * max(1, n_reads + 2)
            if n == 0:
                return None
            views = [args[ptr_lo + p].view()[begin:end]
                     for p in range(n_reads)]
            params = views + [None]
            idx = _lanes(index_of(params, caps), n).astype(np.int64) + \
                bins.offset
            mask = None
            if mask_of is not None:
                mask = _lanes(mask_of(params, caps), n).astype(bool)
            data = bins.buffer.data
            if delta_of is not None:
                delta = _lanes(delta_of(params, caps), n)
                if delta.dtype != data.dtype and delta.dtype.kind in "iu" \
                        and data.dtype.kind in "iu":
                    # Integer addition wraps, so adding in the bins' own
                    # dtype leaves the same bytes and keeps np.add.at on
                    # its typed loop (mixed dtypes take a generic one).
                    delta = delta.astype(data.dtype)
                if mask is not None:
                    np.add.at(data, idx[mask], delta[mask])
                else:
                    np.add.at(data, idx, delta)
                return None
            for i in range(n):
                if mask is not None and not mask[i]:
                    continue
                old = data[idx[i]]
                params_i = [v[i] for v in views] + [old]
                data[idx[i]] = update(params_i, caps)
            return None

        site = runtime.new_site(
            "Histogram", "histogram_reduction", handler,
            f"histogram in @{self.function.name}",
            backend=contract.backend,
            reads=tuple(range(ptr_lo, ptr_lo + n_reads)),
            writes=(bin_arg,))
        handler.__defaults__[0][0] = site
        site.stats["reads_per_element"] = n_reads
        site.stats["flops_per_element"] = _expr_flops(value_kernel.expr) + \
            _expr_flops(index_kernel.expr)
        return site

    # -- SPMV --------------------------------------------------------------------
    def _build_spmv(self, runtime: ApiRuntime) -> ApiCallSite:
        contract = self._contract("sparse_matrix_op")
        spmv = contract.kernels["spmv"]
        sol = self.match.solution
        self._check_escapes([])
        i_begin = self._arg(sol["iter_begin"])
        i_end = self._arg(sol["iter_end"])
        rows_arg = self._arg(sol["ranges.lo_address"].operands[0])
        cols_arg = self._arg(self._read_pointer_base("idx_read"))
        vals_arg = self._arg(self._read_pointer_base("seq_read"))
        x_arg = self._arg(self._read_pointer_base("indir_read"))
        y_arg = self._arg(sol["output.address"].operands[0])

        def handler(args, interpreter, _site=[None]):
            begin, end = int(args[i_begin]), int(args[i_end])
            m = max(0, end - begin)
            site = _site[0]
            rows: Pointer = args[rows_arg]
            row_ptr = rows.view()[begin:end + 1].astype(np.int64)
            nnz = int(row_ptr[-1] - row_ptr[0]) if m else 0
            site.stats["calls"] = site.stats.get("calls", 0) + 1
            site.stats["elements"] = site.stats.get("elements", 0) + nnz
            site.stats["rows"] = site.stats.get("rows", 0) + m
            site.stats["bytes"] = site.stats.get("bytes", 0) + \
                nnz * 20 + m * 12
            if m == 0:
                return None
            col = args[cols_arg].view()
            val = args[vals_arg].view()
            x = args[x_arg].view()
            y = args[y_arg].view()
            y[begin:end] = spmv(row_ptr, col, val, x)
            return None

        site = runtime.new_site(
            "SPMV", "sparse_matrix_op", handler,
            f"csr spmv in @{self.function.name}",
            backend=contract.backend,
            reads=(rows_arg, cols_arg, vals_arg, x_arg),
            writes=(y_arg,))
        handler.__defaults__[0][0] = site
        site.stats["flops_per_element"] = 2
        return site

    # -- GEMM --------------------------------------------------------------------
    def _build_gemm(self, runtime: ApiRuntime) -> ApiCallSite:
        contract = self._contract("matrix_op")
        matmul = contract.kernels["matmul_tt"]
        sol = self.match.solution
        self._check_escapes([])
        for key in ("loop[0].iter_begin", "loop[1].iter_begin",
                    "loop[2].iter_begin"):
            begin = sol[key]
            if not (isinstance(begin, ConstantInt) and begin.value == 0):
                raise TransformError("GEMM loops must start at zero")
        m_arg = self._arg(sol["loop[0].iter_end"])
        n_arg = self._arg(sol["loop[1].iter_end"])
        k_arg = self._arg(sol["loop[2].iter_end"])

        operands = {}
        for name in ("input1", "input2", "output"):
            operands[name] = self._gemm_operand(name)
        alpha = sol.get("dotp.alpha")
        beta = sol.get("dotp.beta")
        alpha_arg = self._arg(alpha) if alpha is not None else None
        beta_arg = self._arg(beta) if beta is not None else None

        def handler(args, interpreter, _site=[None]):
            m, n, k = int(args[m_arg]), int(args[n_arg]), int(args[k_arg])
            site = _site[0]
            site.stats["calls"] = site.stats.get("calls", 0) + 1
            site.stats["elements"] = site.stats.get("elements", 0) + m * n * k
            site.stats["bytes"] = site.stats.get("bytes", 0) + \
                8 * (m * k + n * k + 2 * m * n)
            al = float(args[alpha_arg]) if alpha_arg is not None else 1.0
            be = float(args[beta_arg]) if beta_arg is not None else 0.0
            a_eff = operands["input1"].matrix(args, k)   # [col=m, row=k]
            b_eff = operands["input2"].matrix(args, k)   # [col=n, row=k]
            a2, b2 = a_eff(m), b_eff(n)
            prod = matmul(a2, b2)
            operands["output"].write(args, m, n, al, be, prod)
            return None

        site = runtime.new_site(
            "GEMM", "matrix_op", handler,
            f"gemm in @{self.function.name}",
            backend=contract.backend,
            reads=(operands["input1"].base_arg, operands["input2"].base_arg),
            writes=(operands["output"].base_arg,))
        handler.__defaults__[0][0] = site
        site.stats["flops_per_element"] = 2
        return site

    def _gemm_operand(self, name: str) -> "_GemmOperand":
        sol = self.match.solution
        if f"{name}.flat_idx" in sol:
            base = sol[f"{name}.address"].operands[0]
            base_arg = self._arg(base)
            ld_arg = self._arg(sol[f"{name}.ld"])
            return _GemmOperand("flat", base_arg, ld_arg, None,
                                name == "output")
        # Nested-array form: orientation from which index equals `col`.
        outer_gep = sol[f"{name}.outer_gep"]
        base = outer_gep.operands[0]
        base_arg = self._arg(base)
        pointee = base.type.pointee
        if not isinstance(pointee, ArrayType) or \
                not isinstance(pointee.element, ArrayType):
            # argument of type [C x T]* — a row-major 2-D array parameter
            cols = pointee.count if isinstance(pointee, ArrayType) else None
        else:
            cols = pointee.element.count
        if cols is None:
            raise TransformError(f"{name}: cannot determine 2-D layout")
        # The operand's `col` binding was renamed to the GEMM iterator
        # (Figure 10): iterator[0] for input1/output, iterator[1] for
        # input2. Orientation = whether the first subscript is that value.
        col_key = "iterator[1]" if name == "input2" else "iterator[0]"
        col_binding = sol[col_key]
        first_idx = sol[f"{name}.first_idx"]
        col_first = first_idx is col_binding
        return _GemmOperand("2d", base_arg, None,
                            (cols, col_first), name == "output")

    # -- Stencil ---------------------------------------------------------------------
    def _build_stencil(self, runtime: ApiRuntime) -> ApiCallSite:
        contract = self._contract("stencil")
        compile_kernel = contract.kernels["compile"]
        sol = self.match.solution
        self._check_escapes([])
        dims = {"Stencil1D": 1, "Stencil2D": 2, "Stencil3D": 3}[
            self.match.idiom]
        if dims == 1:
            range_keys = [("iter_begin", "iter_end")]
            inner_key = "body.begin"
        else:
            range_keys = [(f"loop[{d}].iter_begin", f"loop[{d}].iter_end")
                          for d in range(dims)]
            inner_key = f"loop[{dims - 1}].body.begin"
        ranges = [self._range_args(b, e) for b, e in range_keys]

        reads = self.match.family("kernel.input")
        offsets = self.match.stencil_offsets()
        extractor = self._extractor(
            reads, outer_key="begin" if dims == 1 else "loop[0].begin",
            inner_key=inner_key)
        kernel = extractor.extract(sol["kernel.output"])
        compiled = compile_kernel(kernel.expr)

        write_base = sol["write.address"].operands[0] if dims == 1 else \
            sol[f"write.{'outer_gep' if dims == 2 else 'gep1'}"].operands[0]
        write_arg = self._arg(write_base)
        write_shape = _array_shape(write_base, dims)

        cap_lo = len(self.args)
        for cap in kernel.captures:
            self._arg(cap)
        cap_hi = len(self.args)
        read_info = []
        for i in range(len(reads)):
            if dims == 1:
                base = self.match.solution[f"reads[{i}].address"].operands[0]
            elif dims == 2:
                base = self.match.solution[f"reads[{i}].outer_gep"].operands[0]
            else:
                base = self.match.solution[f"reads[{i}].gep1"].operands[0]
            read_info.append((self._arg(base), offsets[i],
                              _array_shape(base, dims)))

        def handler(args, interpreter, _site=[None]):
            bounds = [(int(args[b]), int(args[e])) for b, e in ranges]
            sizes = [max(0, e - b) for b, e in bounds]
            n = int(np.prod(sizes)) if sizes else 0
            site = _site[0]
            site.stats["calls"] = site.stats.get("calls", 0) + 1
            site.stats["elements"] = site.stats.get("elements", 0) + n
            site.stats["bytes"] = site.stats.get("bytes", 0) + \
                8 * n * (len(read_info) + 1)
            if n == 0:
                return None
            caps = list(args[cap_lo:cap_hi])
            views = []
            for arg_index, offset, shape in read_info:
                arr = _shaped(args[arg_index], shape)
                slices = tuple(
                    slice(b + o, e + o)
                    for (b, e), o in zip(bounds, offset))
                views.append(arr[slices])
            result = compiled(views, caps)
            out = _shaped(args[write_arg], write_shape)
            out_slices = tuple(slice(b, e) for b, e in bounds)
            out[out_slices] = result
            return None

        site = runtime.new_site(
            self.match.idiom, "stencil", handler,
            f"{dims}-D stencil in @{self.function.name}",
            backend=contract.backend,
            reads=tuple(info[0] for info in read_info),
            writes=(write_arg,))
        handler.__defaults__[0][0] = site
        site.stats["reads_per_element"] = len(read_info)
        site.stats["flops_per_element"] = _expr_flops(kernel.expr)
        return site


@dataclass
class _GemmOperand:
    form: str  # 'flat' | '2d'
    base_arg: int
    ld_arg: int | None
    layout: tuple | None  # (cols, col_first) for 2d
    is_output: bool

    def matrix(self, args, k: int):
        """Returns fn(extent) -> 2-D array indexed [out_index, contraction]."""
        pointer: Pointer = args[self.base_arg]
        if self.form == "flat":
            ld = int(args[self.ld_arg])

            def eff(extent: int):
                flat = pointer.view(ld * k)
                return np.reshape(flat, (k, ld))[:, :extent].T
            return eff
        cols, col_first = self.layout

        def eff(extent: int):
            arr = _shaped(pointer, (None, cols))
            if col_first:
                return arr[:extent, :k]
            return arr[:k, :extent].T
        return eff

    def write(self, args, m: int, n: int, alpha: float, beta: float,
              prod: np.ndarray) -> None:
        pointer: Pointer = args[self.base_arg]
        if self.form == "flat":
            ld = int(args[self.ld_arg])
            view = np.reshape(pointer.view(ld * n), (n, ld))
            view[:, :m] = beta * view[:, :m] + alpha * prod.T
            return
        cols, col_first = self.layout
        arr = _shaped(pointer, (None, cols))
        if col_first:
            arr[:m, :n] = beta * arr[:m, :n] + alpha * prod
        else:
            arr[:n, :m] = beta * arr[:n, :m] + alpha * prod.T


def _lanes(value, n: int) -> np.ndarray:
    """A kernel result as ``n`` lanes. A kernel that reads no stream
    gives a scalar, which is broadcast; a stream result already is."""
    if isinstance(value, np.ndarray) and value.shape == (n,):
        return value
    return np.broadcast_to(np.asarray(value), (n,))


def _shaped(pointer: Pointer, shape: tuple) -> np.ndarray:
    """Reshape a pointer's underlying data to the given trailing shape."""
    data = pointer.view()
    trailing = [d for d in shape[1:] if d is not None]
    inner = int(np.prod(trailing)) if trailing else 1
    rows = data.size // inner
    return np.reshape(data[:rows * inner], (rows, *trailing))


def _array_shape(base: Value, dims: int) -> tuple:
    """Static array extents of a stencil operand (trailing dims known)."""
    ty = base.type
    if not isinstance(ty, PointerType):
        raise TransformError("stencil base is not a pointer")
    extents: list = []
    current = ty.pointee
    while isinstance(current, ArrayType):
        extents.append(current.count)
        current = current.element
    if dims == 1:
        return (None,)
    if len(extents) < dims:
        raise TransformError("stencil operand has too few dimensions")
    return (None, *extents[-(dims - 1):]) if len(extents) == dims - 1 else \
        (None, *extents[1:dims])


def _expr_flops(expr) -> int:
    from .kernels import KBin, KCall, KCast, KCmp, KSelect

    if isinstance(expr, KBin):
        return 1 + _expr_flops(expr.lhs) + _expr_flops(expr.rhs)
    if isinstance(expr, KCmp):
        return 1 + _expr_flops(expr.lhs) + _expr_flops(expr.rhs)
    if isinstance(expr, KSelect):
        return 1 + sum(_expr_flops(e) for e in
                       (expr.cond, expr.on_true, expr.on_false))
    if isinstance(expr, KCast):
        return _expr_flops(expr.operand)
    if isinstance(expr, KCall):
        return 4 + sum(_expr_flops(a) for a in expr.args)
    return 0
