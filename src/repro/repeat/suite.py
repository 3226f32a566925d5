"""Experiment suites: directory layout, control loops, one-command runs.

Slide 198: "You need: suited directory structure (source, bin, data, res,
graphs); control loops to generate the points needed for each graph".
And the gold standard of slide 234: *one command* builds everything,
runs all experiments, produces all tables and graphs.

:class:`ExperimentSuite` provides exactly that: register experiments
(functions producing a :class:`~repro.measurement.results.ResultSet`),
then ``suite.run_all()`` writes every ``res/<name>.csv``, emits gnuplot
scripts under ``graphs/``, and a manifest documenting how to repeat it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SuiteError
from repro.measurement.results import ResultSet
from repro.repeat.properties import Properties

#: The directory layout the tutorial recommends.
SUITE_DIRECTORIES = ("data", "res", "graphs", "scripts")

ExperimentFn = Callable[[Properties], ResultSet]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment."""

    name: str
    fn: ExperimentFn
    description: str = ""
    expected_minutes: float = 1.0
    plot_x: str = ""
    plot_y: str = ""

    def __post_init__(self):
        if not self.name or not self.name.replace("_", "").replace(
                "-", "").isalnum():
            raise SuiteError(f"bad experiment name {self.name!r}")
        if self.expected_minutes <= 0:
            raise SuiteError("expected duration must be positive")


@dataclass(frozen=True)
class ExperimentRun:
    """The outcome of one executed experiment."""

    experiment: Experiment
    results: ResultSet
    csv_path: Path
    gnuplot_path: Optional[Path]
    wall_seconds: float


class ExperimentSuite:
    """A repeatable experiment package rooted at one directory."""

    def __init__(self, root: "str | Path", name: str = "experiments",
                 properties: Optional[Properties] = None):
        self.root = Path(root)
        self.name = name
        self.properties = properties if properties is not None \
            else Properties()
        self._experiments: Dict[str, Experiment] = {}

    # -- registration --------------------------------------------------------

    def register(self, experiment: Experiment) -> None:
        if experiment.name in self._experiments:
            raise SuiteError(
                f"experiment {experiment.name!r} already registered")
        self._experiments[experiment.name] = experiment

    def add(self, name: str, fn: ExperimentFn, description: str = "",
            expected_minutes: float = 1.0, plot_x: str = "",
            plot_y: str = "") -> Experiment:
        """Convenience registration."""
        experiment = Experiment(name=name, fn=fn, description=description,
                                expected_minutes=expected_minutes,
                                plot_x=plot_x, plot_y=plot_y)
        self.register(experiment)
        return experiment

    @property
    def experiment_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._experiments))

    def experiment(self, name: str) -> Experiment:
        try:
            return self._experiments[name]
        except KeyError:
            raise SuiteError(
                f"unknown experiment {name!r}; registered: "
                f"{list(self.experiment_names)}") from None

    # -- layout ----------------------------------------------------------------

    def scaffold(self) -> None:
        """Create the recommended directory structure."""
        for sub in SUITE_DIRECTORIES:
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    def res_path(self, name: str) -> Path:
        return self.root / "res" / f"{name}.csv"

    # -- execution ----------------------------------------------------------------

    def run(self, name: str) -> ExperimentRun:
        """Run one experiment: CSV under ``res/``, plot under ``graphs/``."""
        experiment = self.experiment(name)
        self.scaffold()
        started = time.perf_counter()
        results = experiment.fn(self.properties)
        wall = time.perf_counter() - started
        if not isinstance(results, ResultSet):
            raise SuiteError(
                f"experiment {name!r} must return a ResultSet, got "
                f"{type(results).__name__}")
        csv_path = self.res_path(name)
        results.to_csv(csv_path)
        gnu_path = None
        if experiment.plot_x and experiment.plot_y:
            gnu_path = self._write_plot(experiment, results)
        return ExperimentRun(experiment=experiment, results=results,
                             csv_path=csv_path, gnuplot_path=gnu_path,
                             wall_seconds=wall)

    def _write_plot(self, experiment: Experiment,
                    results: ResultSet) -> Path:
        from repro.viz.gnuplot import GnuplotScript
        script = GnuplotScript(
            name=experiment.name,
            title=experiment.description or experiment.name,
            x_label=experiment.plot_x,
            y_label=experiment.plot_y)
        script.add_series(experiment.name, results.series(
            experiment.plot_x, experiment.plot_y))
        return script.write(self.root / "graphs")

    def run_all(self) -> List[ExperimentRun]:
        """The slide-234 one-command entry point."""
        return [self.run(name) for name in self.experiment_names]

    def total_expected_minutes(self) -> float:
        return sum(e.expected_minutes for e in self._experiments.values())
