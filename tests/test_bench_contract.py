"""The ``src/`` surface the ``bench/`` benchmark reads, pinned.

``bench/`` imports library names, shells out to ``repro serve`` and
scrapes Prometheus families by name.  A refactor that renames any of
them breaks the benchmark without failing a single unit test; these
checks make it fail here first.  No sockets, no clock runs.
"""

import ast
import importlib
import pathlib
import re

from repro.cli import build_command_parser
from repro.experiments import ObsSpec, ScenarioSpec
from repro.experiments.runner import build_deployment
from repro.obs.prom import parse, render
from repro.service import ServiceSpec

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _repro_imports(path: pathlib.Path) -> dict[str, tuple[str, str]]:
    """``local name -> (module, attribute)`` for every ``from repro...``
    import in a bench source file, function-level imports included."""
    names = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return names


def _resolve(module: str, name: str):
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")  # a submodule


def test_every_name_bench_imports_from_src_exists():
    seen = set()
    for path in sorted(BENCH.glob("*.py")):
        imports = _repro_imports(path)
        objects = {local: _resolve(*target) for local, target in imports.items()}
        seen.update(imports.values())
        # Attributes bench reads off an imported module or class
        # (``perf.clear_caches`` ...) are part of the surface too.
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in objects
            ):
                assert hasattr(objects[node.value.id], node.attr), (
                    f"{path.name}: {node.value.id}.{node.attr}"
                )
    assert ("repro.experiments", "build_ordering_group") in seen
    assert ("repro.obs.prom", "parse") in seen


def test_the_serve_flags_bench_shells_out_to_parse():
    args = build_command_parser().parse_args(
        [
            "serve", "--scenario", "svc_fleet_1k", "--transport", "asyncio",
            "--tcp", "--crypto", "ed25519:binwire", "--seed", "3",
            "--port", "0", "--for", "20",
        ]
    )
    assert (args.scenario, args.transport, args.tcp) == ("svc_fleet_1k", "asyncio", True)
    assert (args.crypto, args.seed, args.port, args.duration) == (
        "ed25519:binwire", 3, 0, 20.0,
    )


def test_the_hub_renders_every_family_bench_scrapes():
    scraped = {
        node.value
        for node in ast.walk(ast.parse((BENCH / "live.py").read_text()))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and re.fullmatch(r"repro_\w+", node.value)
    }
    assert "repro_fso_fail_signals_total" in scraped
    # A sim deployment with the hub on and a gateway in front: the
    # labelled families (per-scheme stages, admission outcomes) exist
    # once the wrappers and the gateway are built.
    deployment = build_deployment(
        ScenarioSpec(
            system="fs-newtop",
            n_members=4,
            gateway=ServiceSpec(),
            obs=ObsSpec(http_port=None),
        )
    )
    families = parse(render(deployment.hub.registry))
    deployment.close()

    def exported(series: str) -> bool:
        return series in families or any(
            series.endswith(suffix) and series[: -len(suffix)] in families
            for suffix in ("_count", "_sum", "_bucket")
        )

    missing = sorted(series for series in scraped if not exported(series))
    assert not missing, missing
