"""The resilient asyncio solver service.

:class:`SolverService` answers :class:`SolveRequest`\\ s from the
policy atlas, falling back to supervised solves with a resilience
layer a long-running deployment needs:

- **single-flight coalescing** -- N concurrent requests for one
  config-hash trigger exactly one supervised solve; waiters share the
  leader's result *or its typed error* (an error storm is coalesced
  too, not amplified);
- **deadline propagation** -- every request runs under a
  :class:`~repro.core.deadline.Deadline`; each retry attempt's solver
  budget is the *remaining* time, so a hung solve is cancelled at the
  deadline (cooperatively through
  :class:`~repro.runtime.budget.Budget` for in-thread solves, by
  ``asyncio.wait_for`` for async backends), not leaked;
- **retry with jittered exponential backoff** -- transient
  :class:`~repro.errors.SolverError`\\ s (worker crashes, numerical
  divergence) are retried under :class:`RetryPolicy`; input errors and
  expired deadlines are not (retrying cannot fix a bad bracket or
  refund spent time);
- **admission control** -- at most ``max_pending`` distinct solves may
  be in flight; excess cold requests fail fast with the typed
  :class:`~repro.errors.ServiceOverloadError` (a 429, not a hang),
  while atlas hits keep being served during overload;
- **graceful degradation** -- when the exact solve misses its deadline
  (or exhausts retries), the service can serve the nearest atlas
  neighbor or a reduced-lookahead solve, always flagged
  ``degraded: true`` with a reason -- never silently;
- **graceful shutdown** -- :meth:`SolverService.close` cancels
  in-flight solves and resolves every waiter with the typed
  :class:`~repro.errors.ServiceShutdownError`; no request is ever
  dropped without an answer.

Telemetry: ``serve/*`` counters (requests, atlas hits, coalesced
waiters, solve attempts, retries, degraded responses, overloads) and
one ``serve-request`` trace event per answered request, so a ``--trace``
run proves coalescing hit-rates and degraded-response counts end to
end.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from repro.core.config import AttackConfig
from repro.core.deadline import Deadline
from repro.core.incentives import IncentiveModel
from repro.errors import (
    ReproError,
    ServiceOverloadError,
    ServiceShutdownError,
    SolveDeadlineError,
    SolverBudgetExceededError,
    SolverError,
    SolverInputError,
)
from repro.runtime import telemetry
from repro.serve.atlas import PolicyAtlas, atlas_key, key_digest


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for transient solve failures.

    Attempt ``k`` (1-based) failing transiently waits
    ``base_backoff_s * backoff_factor**(k-1) * (1 + jitter * u)`` with
    ``u ~ U[0, 1)`` before attempt ``k + 1`` -- the jitter decorrelates
    retry storms from coalesced waiters that gave up and re-submitted.
    A backoff that would overrun the request deadline is not taken; the
    request moves straight to the degraded path.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}")
        if self.base_backoff_s < 0 or self.jitter < 0:
            raise ReproError("backoff and jitter cannot be negative")
        if self.backoff_factor < 1.0:
            raise ReproError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}")

    def backoff(self, attempt: int, rng: np.random.Generator) -> float:
        """Seconds to wait after failed attempt number ``attempt``."""
        base = self.base_backoff_s * self.backoff_factor ** (attempt - 1)
        return base * (1.0 + self.jitter * float(rng.random()))


@dataclass(frozen=True)
class SolveRequest:
    """One query: a config + incentive model, with an optional
    per-request deadline (seconds, relative) and a flag allowing the
    degraded fallbacks."""

    config: AttackConfig
    model: IncentiveModel
    deadline_s: Optional[float] = None
    allow_degraded: bool = True


@dataclass
class ServeResponse:
    """One answered request.

    ``source`` is one of ``"atlas"`` (exact precomputed entry),
    ``"solve"`` (fresh supervised solve, now backfilled),
    ``"degraded-nearest"`` (closest atlas entry for a *different*
    config) or ``"degraded-reduced"`` (fresh solve of a
    reduced-lookahead config).  ``degraded`` is true iff the payload
    does not answer the exact requested config; ``degraded_reason``
    then says why and what was substituted.
    """

    key: str
    utility: float
    payload: Dict
    source: str
    degraded: bool = False
    degraded_reason: Optional[str] = None
    coalesced: bool = False
    attempts: int = 0
    elapsed_s: float = 0.0

    def to_json(self) -> Dict:
        """JSON-compatible summary (policy omitted -- it dominates the
        payload size; fetch it from the atlas by key if needed)."""
        return {"key": self.key, "utility": self.utility,
                "source": self.source, "degraded": self.degraded,
                "degraded_reason": self.degraded_reason,
                "coalesced": self.coalesced, "attempts": self.attempts,
                "elapsed_s": self.elapsed_s}


@dataclass
class ServiceStats:
    """Live counters of one :class:`SolverService`."""

    requests: int = 0
    atlas_hits: int = 0
    coalesced: int = 0
    solves: int = 0
    solve_attempts: int = 0
    retries: int = 0
    degraded: int = 0
    overloads: int = 0
    deadline_misses: int = 0
    shutdown_cancelled: int = 0

    def coalesce_hit_rate(self) -> float:
        """Fraction of requests answered by piggybacking on an
        in-flight identical solve."""
        if not self.requests:
            return 0.0
        return self.coalesced / self.requests


@dataclass
class _Inflight:
    """One in-flight single-flight solve and its shared future."""

    future: asyncio.Future
    task: Optional[asyncio.Task] = None
    waiters: int = 1


def default_solve_backend(request: SolveRequest, deadline: Deadline):
    """Solve one request synchronously under the remaining deadline.

    Runs in a worker thread (see :meth:`SolverService._attempt`);
    reuses the shared :class:`~repro.runtime.parallel.SolveTask` layer,
    so the budget/fallback/validation path is identical to sweep cells
    -- including the typed :class:`~repro.errors.SolveDeadlineError` /
    :class:`~repro.errors.SolverBudgetExceededError` when the
    cooperative budget expires.
    """
    from repro.runtime.parallel import SolveTask, execute_task
    budget = deadline.budget()  # raises typed error when expired
    task = SolveTask(kind="analyze", key=("serve",),
                     config=request.config, model=request.model,
                     params=(("wall_clock", budget.wall_clock),))
    return execute_task(task)


class SolverService:
    """The long-running solver service (see module docstring).

    Parameters
    ----------
    atlas:
        The persistent :class:`~repro.serve.atlas.PolicyAtlas`.
    solve_fn:
        Backend computing one attempt: ``solve_fn(request, deadline)``
        returning an analysis payload dict.  A plain callable runs in
        a worker thread under ``asyncio.wait_for``; an async callable
        is awaited directly (and genuinely cancelled at the deadline).
        Defaults to :func:`default_solve_backend`.
    max_concurrency:
        Solver parallelism (semaphore over actual solve work).
    max_pending:
        Admission-control bound on distinct in-flight solves
        (queued + running); excess cold requests raise
        :class:`~repro.errors.ServiceOverloadError`.
    default_deadline_s:
        Deadline applied to requests that do not carry their own.
    retry:
        The :class:`RetryPolicy` for transient failures.
    degraded_ad:
        Lookahead (acceptance depth) used by reduced-lookahead
        degraded solves.
    degraded_grace_s:
        Extra wall-clock grace granted to the degraded fallbacks after
        the exact solve missed its deadline (a degraded answer a
        moment late beats a typed timeout for most clients).
    nearest_max_distance:
        Maximum L1 power-split distance a nearest-neighbor substitute
        may have.
    clock:
        Injectable monotonic clock (chaos tests skew it).
    seed:
        Seed of the private backoff-jitter RNG.
    """

    def __init__(self, atlas: PolicyAtlas,
                 solve_fn: Optional[Callable] = None,
                 max_concurrency: int = 2,
                 max_pending: int = 16,
                 default_deadline_s: float = 30.0,
                 retry: RetryPolicy = RetryPolicy(),
                 degraded_ad: int = 2,
                 degraded_grace_s: float = 5.0,
                 nearest_max_distance: float = float("inf"),
                 clock: Callable[[], float] = time.monotonic,
                 seed: Optional[int] = None) -> None:
        if max_concurrency < 1:
            raise ReproError(
                f"max_concurrency must be >= 1, got {max_concurrency!r}")
        if max_pending < 1:
            raise ReproError(
                f"max_pending must be >= 1, got {max_pending!r}")
        if default_deadline_s <= 0:
            raise ReproError("default_deadline_s must be positive")
        self.atlas = atlas
        self.solve_fn = solve_fn or default_solve_backend
        self.max_pending = max_pending
        self.default_deadline_s = default_deadline_s
        self.retry = retry
        self.degraded_ad = degraded_ad
        self.degraded_grace_s = degraded_grace_s
        self.nearest_max_distance = nearest_max_distance
        self.clock = clock
        self.stats = ServiceStats()
        self._rng = np.random.default_rng(seed)
        self._sem = asyncio.Semaphore(max_concurrency)
        self._inflight: Dict[str, _Inflight] = {}
        self._tasks: Set[asyncio.Task] = set()
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    async def __aenter__(self) -> "SolverService":
        return self

    async def __aexit__(self, *_exc) -> bool:
        await self.close()
        return False

    @property
    def closed(self) -> bool:
        """Whether the service has been shut down."""
        return self._closed

    async def close(self) -> None:
        """Graceful shutdown: cancel in-flight solves, resolving every
        waiter with :class:`~repro.errors.ServiceShutdownError` -- no
        in-flight request is ever silently dropped."""
        self._closed = True
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        # Belt-and-braces: resolve any future a died task left behind.
        for inflight in list(self._inflight.values()):
            if not inflight.future.done():
                inflight.future.set_exception(ServiceShutdownError(
                    "service shut down with the solve in flight"))
        self._inflight.clear()

    # -- the public entry point ----------------------------------------

    async def submit(self, request: SolveRequest) -> ServeResponse:
        """Answer one request (see module docstring for the flow).

        Raises
        ------
        ServiceShutdownError
            When the service is closed (or closes mid-flight).
        ServiceOverloadError
            When admission control rejects a cold request.
        SolverError
            Typed solve failures (deadline, input, exhausted chains)
            when no degraded answer is allowed or available.
        """
        if self._closed:
            raise ServiceShutdownError("service is closed")
        started = self.clock()
        self.stats.requests += 1
        telemetry.counter_add("serve/requests")
        key = atlas_key(request.config, request.model)
        digest = key_digest(key)

        # 1. Atlas fast path -- served even under full admission.
        body = self.atlas.get(key)
        if body is not None:
            self.stats.atlas_hits += 1
            telemetry.counter_add("serve/atlas_hits")
            return self._respond(request, digest, body, source="atlas",
                                 started=started)

        # 2. Single-flight coalescing.
        inflight = self._inflight.get(digest)
        if inflight is not None:
            inflight.waiters += 1
            self.stats.coalesced += 1
            telemetry.counter_add("serve/coalesced")
            response = await asyncio.shield(inflight.future)
            return dataclasses.replace(
                response, coalesced=True,
                elapsed_s=self.clock() - started)

        # 3. Admission control for a fresh solve.
        if len(self._inflight) >= self.max_pending:
            self.stats.overloads += 1
            telemetry.counter_add("serve/overloads")
            raise ServiceOverloadError(
                f"{len(self._inflight)} solves already in flight "
                f"(max_pending={self.max_pending}); retry with backoff")

        # 4. Become the single-flight leader.
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[digest] = _Inflight(future=future)
        task = loop.create_task(
            self._lead_solve(digest, key, request, started))
        self._inflight[digest].task = task
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return await asyncio.shield(future)

    # -- single-flight leader ------------------------------------------

    async def _lead_solve(self, digest: str, key: Dict,
                          request: SolveRequest, started: float) -> None:
        """Run the resilient solve and resolve the shared future with
        a :class:`ServeResponse` or a typed error."""
        inflight = self._inflight[digest]
        try:
            response = await self._solve_resilient(
                digest, key, request, started)
            if not inflight.future.done():
                inflight.future.set_result(response)
        except asyncio.CancelledError:
            self.stats.shutdown_cancelled += 1
            telemetry.counter_add("serve/shutdown_cancelled")
            if not inflight.future.done():
                inflight.future.set_exception(ServiceShutdownError(
                    "solve cancelled by service shutdown"))
        except BaseException as exc:  # typed errors included
            if not inflight.future.done():
                inflight.future.set_exception(exc)
            else:  # pragma: no cover - defensive
                raise
        finally:
            self._inflight.pop(digest, None)
            # A future nobody awaited yet must not warn on teardown.
            if inflight.future.done() and \
                    inflight.future.exception() is not None:
                inflight.future.exception()

    async def _solve_resilient(self, digest: str, key: Dict,
                               request: SolveRequest,
                               started: float) -> ServeResponse:
        """Deadline + retry + degradation around the solve backend."""
        deadline = Deadline.after(
            request.deadline_s if request.deadline_s is not None
            else self.default_deadline_s, clock=self.clock)
        attempts = 0
        last_error: Optional[SolverError] = None
        payload: Optional[Dict] = None
        async with self._sem:
            while True:
                attempts += 1
                self.stats.solve_attempts += 1
                telemetry.counter_add("serve/solve_attempts")
                try:
                    payload = await self._attempt(request, deadline)
                    break
                except (SolveDeadlineError, asyncio.TimeoutError) as exc:
                    self.stats.deadline_misses += 1
                    telemetry.counter_add("serve/deadline_misses")
                    last_error = exc if isinstance(exc, SolverError) \
                        else SolveDeadlineError(
                            f"solve exceeded its "
                            f"{deadline.remaining():.3f}s-remaining "
                            f"deadline (attempt {attempts})")
                    break
                except SolverInputError:
                    raise  # not retryable, not degradable: caller bug
                except SolverBudgetExceededError as exc:
                    # The budget *is* the deadline here; no time left.
                    self.stats.deadline_misses += 1
                    telemetry.counter_add("serve/deadline_misses")
                    last_error = exc
                    break
                except SolverError as exc:
                    last_error = exc
                    if attempts >= self.retry.max_attempts:
                        break
                    backoff = self.retry.backoff(attempts, self._rng)
                    if backoff >= deadline.remaining():
                        break
                    self.stats.retries += 1
                    telemetry.counter_add("serve/retries")
                    await asyncio.sleep(backoff)
            if payload is not None:
                self.atlas.put(key, payload)
                self.stats.solves += 1
                telemetry.counter_add("serve/solves")
                return self._respond(request, digest, payload,
                                     source="solve", started=started,
                                     attempts=attempts)
            return await self._degrade(digest, key, request, started,
                                       attempts, last_error)

    async def _attempt(self, request: SolveRequest,
                       deadline: Deadline) -> Dict:
        """One solve attempt under the remaining deadline.

        Async backends are awaited under ``asyncio.wait_for`` and
        genuinely cancelled at the deadline; sync backends run in a
        worker thread and are cancelled cooperatively through the
        wall-clock budget the backend derives from ``deadline`` (the
        ``wait_for`` is a backstop with a small grace so the thread's
        own typed error normally wins the race).
        """
        remaining = deadline.remaining()
        if remaining <= 0:
            raise SolveDeadlineError(
                "deadline expired before the attempt could start")
        if asyncio.iscoroutinefunction(self.solve_fn):
            return await asyncio.wait_for(
                self.solve_fn(request, deadline), timeout=remaining)
        loop = asyncio.get_running_loop()
        return await asyncio.wait_for(
            loop.run_in_executor(
                None, lambda: self.solve_fn(request, deadline)),
            timeout=remaining + 0.25)

    # -- degraded modes ------------------------------------------------

    async def _degrade(self, digest: str, key: Dict,
                       request: SolveRequest, started: float,
                       attempts: int,
                       last_error: Optional[SolverError]) -> ServeResponse:
        """Serve a flagged substitute, or re-raise the typed error."""
        error = last_error if last_error is not None else \
            SolveDeadlineError("solve failed with no recorded error")
        if not request.allow_degraded:
            raise error

        # (a) nearest-neighbor atlas entry for a different power split.
        found = self.atlas.nearest(
            key, max_distance=self.nearest_max_distance)
        if found is not None:
            _nkey, body, distance = found
            self.stats.degraded += 1
            telemetry.counter_add("serve/degraded_nearest")
            return self._respond(
                request, digest, body, source="degraded-nearest",
                started=started, attempts=attempts, degraded=True,
                reason=f"served nearest atlas entry (power-split "
                       f"distance {distance:.4f}) after "
                       f"{type(error).__name__}: {error}")

        # (b) reduced-lookahead solve under the grace budget.
        if request.config.ad > self.degraded_ad:
            reduced_config = dataclasses.replace(
                request.config, ad=self.degraded_ad,
                ad_carol=None if request.config.ad_carol is None
                else min(request.config.ad_carol, self.degraded_ad))
            reduced = SolveRequest(config=reduced_config,
                                   model=request.model)
            grace = Deadline.after(self.degraded_grace_s,
                                   clock=self.clock)
            try:
                payload = await self._attempt(reduced, grace)
            except (SolverError, asyncio.TimeoutError):
                raise error from None
            # Exact for the *reduced* config: backfill under its own
            # key (never under the requested key -- that would turn a
            # degraded answer into a future "exact" atlas hit).
            self.atlas.put(atlas_key(reduced_config, request.model),
                           payload)
            self.stats.degraded += 1
            telemetry.counter_add("serve/degraded_reduced")
            return self._respond(
                request, digest, payload, source="degraded-reduced",
                started=started, attempts=attempts, degraded=True,
                reason=f"served reduced-lookahead solve "
                       f"(AD {request.config.ad} -> {self.degraded_ad}) "
                       f"after {type(error).__name__}: {error}")
        raise error

    # -- response assembly ---------------------------------------------

    def _respond(self, request: SolveRequest, digest: str, body: Dict,
                 source: str, started: float, attempts: int = 0,
                 degraded: bool = False,
                 reason: Optional[str] = None) -> ServeResponse:
        elapsed = self.clock() - started
        utility = float(body.get("utility", float("nan")))
        if degraded:
            telemetry.counter_add("serve/degraded")
        telemetry.event("serve-request", key=digest[:16], source=source,
                        degraded=degraded, coalesced=False,
                        attempts=attempts, elapsed_s=elapsed)
        return ServeResponse(key=digest, utility=utility, payload=body,
                             source=source, degraded=degraded,
                             degraded_reason=reason, attempts=attempts,
                             elapsed_s=elapsed)


# -- batch/network front-ends ------------------------------------------

def request_from_json(obj: Dict) -> SolveRequest:
    """Build a :class:`SolveRequest` from a JSON request object.

    Accepts either ``{"alpha": .., "ratio": "2:3", ...}`` (the CLI's
    ``from_ratio`` notation) or explicit ``beta``/``gamma`` shares,
    plus ``model`` (``relative``/``absolute``/``orphans`` or the full
    enum value), ``setting``, ``ad``, ``deadline_s`` and
    ``allow_degraded``.
    """
    short = {"relative": IncentiveModel.COMPLIANT_PROFIT,
             "absolute": IncentiveModel.NONCOMPLIANT_PROFIT,
             "orphans": IncentiveModel.NON_PROFIT}
    if not isinstance(obj, dict):
        raise ReproError(f"request must be a JSON object, got {obj!r}")
    raw_model = obj.get("model", "relative")
    model = short.get(raw_model)
    if model is None:
        model = IncentiveModel(raw_model)
    kwargs = {}
    for name in ("setting", "ad", "ad_carol", "rds", "confirmations"):
        if name in obj:
            kwargs[name] = obj[name]
    if "ratio" in obj:
        try:
            b, g = str(obj["ratio"]).split(":")
            split = (int(b), int(g))
        except ValueError:
            raise ReproError(f"ratio must look like '2:3', "
                             f"got {obj['ratio']!r}")
        config = AttackConfig.from_ratio(float(obj["alpha"]), split,
                                         **kwargs)
    else:
        config = AttackConfig(alpha=float(obj["alpha"]),
                              beta=float(obj["beta"]),
                              gamma=float(obj["gamma"]), **kwargs)
    return SolveRequest(config=config, model=model,
                        deadline_s=obj.get("deadline_s"),
                        allow_degraded=bool(obj.get("allow_degraded",
                                                    True)))


async def answer_json(service: SolverService, obj: Dict) -> Dict:
    """Answer one JSON request; errors become typed JSON, never an
    exception (the wire contract of the batch and HTTP front-ends)."""
    try:
        response = await service.submit(request_from_json(obj))
    except ReproError as exc:
        return {"ok": False, "error": type(exc).__name__,
                "message": str(exc)}
    except (KeyError, TypeError, ValueError) as exc:
        return {"ok": False, "error": type(exc).__name__,
                "message": f"malformed request: {exc}"}
    result = response.to_json()
    result["ok"] = True
    return result


async def serve_batch(service: SolverService,
                      requests: List[Dict]) -> List[Dict]:
    """Answer a batch of JSON requests concurrently, preserving input
    order (the ``repro serve --requests`` mode)."""
    return list(await asyncio.gather(
        *(answer_json(service, obj) for obj in requests)))


#: Default byte limit on one HTTP request body
#: (:mod:`repro.serve.http`).  Far above any legitimate request, far
#: below a memory hazard.
MAX_REQUEST_BYTES = 1 << 20


# -- multi-process workers ---------------------------------------------

def _serve_worker(atlas_root: str, requests: List[Dict],
                  service_kwargs: Dict, traced: bool):
    """Worker-process entry point for :func:`serve_batch_multiprocess`.

    Builds a private :class:`~repro.serve.atlas.PolicyAtlas` handle and
    :class:`SolverService` over the shared atlas directory, answers its
    slice of the batch under a worker-local tracer, and ships the
    telemetry snapshot back for the parent to merge -- the same
    worker-count-independent scheme sweep cells use
    (:func:`repro.runtime.parallel.execute_task_traced`).
    """
    async def run() -> List[Dict]:
        service = SolverService(PolicyAtlas(atlas_root), **service_kwargs)
        try:
            return await serve_batch(service, requests)
        finally:
            await service.close()

    if not traced:
        return asyncio.run(run()), None
    tracer = telemetry.Tracer()
    with telemetry.use_tracer(tracer):
        results = asyncio.run(run())
    return results, tracer.snapshot()


def serve_batch_multiprocess(atlas_root, requests: List[Dict],
                             processes: int,
                             **service_kwargs) -> List[Dict]:
    """Answer a batch of JSON requests across worker processes sharing
    one atlas directory, preserving input order.

    Each worker owns a full :class:`SolverService` (its own event loop,
    admission control and single-flight table); the shared state is the
    atlas directory, which is multi-writer-safe by construction
    (content-addressed filenames + atomic same-content writes), so two
    workers cold-solving the same cell converge on one entry.  Against
    a warmed atlas the merged ``serve/*`` and ``atlas/*`` counters are
    worker-count independent; on cold overlapping requests duplicate
    solves *across* processes are possible (single-flight is
    per-process) and only cost time, never consistency.

    ``service_kwargs`` are forwarded to each worker's
    :class:`SolverService` and must be picklable (no ``solve_fn`` /
    ``clock`` injection here -- workers use the default backend).
    """
    if processes < 1:
        raise ReproError(f"processes must be >= 1, got {processes!r}")
    root = str(atlas_root)
    if processes == 1:
        return _serve_worker(root, requests, service_kwargs,
                             traced=False)[0]
    from concurrent.futures import ProcessPoolExecutor, as_completed
    traced = telemetry.tracing_enabled()
    results: List[Optional[Dict]] = [None] * len(requests)
    slices = {i: requests[i::processes] for i in range(processes)}
    with ProcessPoolExecutor(max_workers=processes) as pool:
        futures = {
            pool.submit(_serve_worker, root, chunk, service_kwargs,
                        traced): i
            for i, chunk in slices.items() if chunk}
        for future in as_completed(futures):
            offset = futures[future]
            worker_results, snapshot = future.result()
            if snapshot is not None and telemetry.tracing_enabled():
                telemetry.current_tracer().merge_snapshot(snapshot)
            for j, result in zip(range(offset, len(requests), processes),
                                 worker_results):
                results[j] = result
    return results  # type: ignore[return-value]
