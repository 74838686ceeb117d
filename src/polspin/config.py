"""Plain-text experiment configuration.

Files are UTF-8 ``key = value`` lines; ``#`` starts a comment.  Every key
has a documented default (the 7 T reference scenario), so an empty file is
a complete configuration.  ``parse_config`` and ``serialize_config`` round
trip exactly: floats are serialized with repr so no precision is lost.

``SCHEMA`` is the single list of keys; README's "Configuration keys" table
documents each one.  Number values must be finite, and grids are capped at
``MAX_SAMPLES`` samples and sweeps at ``MAX_ROWS`` rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from operator import attrgetter

from .errors import ConfigTypeError, MissingKeyError, UnknownKeyError
from .polarization import PhotonPolarization, named_polarization, polarization_from_phase
from .transfer import MAX_FIELD_TESLA, FieldConfig, MaterialParams, PumpSpec, check_wavelength

# Largest number of samples one trace set or sweep may hold.
MAX_SAMPLES = 10**7
# Largest number of rows (phases, fields or wavelengths) one sweep may have;
# each row costs engine memory beyond its samples.
MAX_ROWS = 10**5

# key -> (attribute path on ExperimentConfig, value type or allowed values),
# in canonical (serialization) order.  Defaults live on the dataclasses.
SCHEMA = {
    "g_e": ("material.g_e", float),
    "g_lh": ("material.g_lh", float),
    "t2_star_ps": ("material.t2_star_ps", float),
    "tau_h_ps": ("material.tau_h_ps", float),
    "lambda_lh_nm": ("material.lambda_lh_nm", float),
    "lambda_hh_nm": ("material.lambda_hh_nm", float),
    "inhom_fwhm_nm": ("material.inhom_fwhm_nm", float),
    "lower_eigenstate": ("material.lower_eigenstate", ("minus_x", "plus_x")),
    "b_field_tesla": ("field.bx_tesla", float),
    "pump_center_nm": ("pump.center_nm", float),
    "pump_fwhm_nm": ("pump.fwhm_nm", float),
    "pump_pol": ("pump_pol_name", str),  # checked by resolve_polarization
    "exciton": ("exciton", ("lh", "hh")),
    "engine": ("engine", ("closed", "master")),
    "t_max_ps": ("t_max_ps", float),
    "t_step_ps": ("t_step_ps", float),
    "phase_points": ("phase_points", int),
    "b_min": ("b_min", float),
    "b_max": ("b_max", float),
    "b_points": ("b_points", int),
    "lambda_min_nm": ("lambda_min_nm", float),
    "lambda_max_nm": ("lambda_max_nm", float),
    "lambda_points": ("lambda_points", int),
    "delta_t_ps": ("delta_t_ps", float),
    "h_axis": ("h_axis", ("plus_x", "minus_x")),
}

KEY_ORDER = tuple(SCHEMA)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved configuration for traces, sweeps and presets.

    The pump polarization is stored once, as ``pump_pol_name`` plus
    ``h_axis``; ``pump.pol`` is always derived from that pair, and any
    ``pol`` on the ``PumpSpec`` passed in is ignored.
    """

    material: MaterialParams = dc_field(default_factory=MaterialParams)
    field: FieldConfig = dc_field(default_factory=FieldConfig)
    pump: PumpSpec = dc_field(default_factory=PumpSpec)
    pump_pol_name: str = "D+"
    exciton: str = "lh"
    engine: str = "closed"
    t_max_ps: float = 100.0
    t_step_ps: float = 0.5
    phase_points: int = 64
    b_min: float = 0.0
    b_max: float = 7.0
    b_points: int = 15
    lambda_min_nm: float | None = None
    lambda_max_nm: float | None = None
    lambda_points: int = 121
    delta_t_ps: float | None = None
    h_axis: str = "plus_x"

    def __post_init__(self):
        for key in ("exciton", "engine", "h_axis"):
            if getattr(self, key) not in SCHEMA[key][1]:
                raise ValueError(f"{key} must be one of {SCHEMA[key][1]}")
        pol = resolve_polarization(self.pump_pol_name, self.h_axis)
        object.__setattr__(self, "pump", replace(self.pump, pol=pol))
        if self.t_max_ps <= 0.0 or self.t_step_ps <= 0.0:
            raise ValueError("t_max_ps and t_step_ps must be positive")
        if not math.isfinite(self.t_max_ps + self.t_step_ps):
            # the time grid ends below t_max_ps + t_step_ps
            raise ValueError("t_max_ps + t_step_ps must be finite")
        if self.phase_points < 1 or self.b_points < 1 or self.lambda_points < 2:
            raise ValueError("sweep grids must be non-empty")
        if self.b_min > self.b_max:
            raise ValueError("b_min must be <= b_max")
        if max(abs(self.b_min), abs(self.b_max)) > MAX_FIELD_TESLA:
            raise ValueError(f"|b_min| and |b_max| must be <= {MAX_FIELD_TESLA}")
        lo, hi = self.lambda_min_nm, self.lambda_max_nm
        for key, value in (("lambda_min_nm", lo), ("lambda_max_nm", hi)):
            if value is not None:
                check_wavelength(key, value)
        if lo is not None and hi is not None and not lo < hi:
            raise ValueError("lambda_min_nm must be < lambda_max_nm")
        if self.delta_t_ps is not None and self.delta_t_ps < 0.0:
            raise ValueError("delta_t_ps must be >= 0")
        if self.lambda_points > MAX_ROWS:
            raise ValueError(f"lambda_points must be <= MAX_ROWS = {MAX_ROWS}")
        check_samples(self)


def grid_samples(t_max_ps: float, t_step_ps: float) -> int:
    """Samples on the grid 0, step, ..., n*step <= t_max, at most MAX_SAMPLES + 1."""
    return math.floor(min(t_max_ps / t_step_ps, MAX_SAMPLES) + 1e-9) + 1


def check_samples(cfg: ExperimentConfig, rows: int = 1) -> None:
    """Refuse a result of more than MAX_ROWS traces, or of ``rows`` traces
    on the time grid that would hold more than MAX_SAMPLES samples; sweeps
    call this before allocating."""
    if rows > MAX_ROWS:
        raise ConfigTypeError(f"too many rows: {rows} is more than MAX_ROWS = {MAX_ROWS} "
                              "(check phase_points, b_points)")
    n_t = grid_samples(cfg.t_max_ps, cfg.t_step_ps)
    if n_t * rows > MAX_SAMPLES:
        raise ConfigTypeError(
            f"grid too large: {rows} x {n_t} samples is more than MAX_SAMPLES = "
            f"{MAX_SAMPLES} (check t_max_ps / t_step_ps, phase_points, b_points)"
        )


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def resolve_polarization(spec: str, h_axis: str = "plus_x") -> PhotonPolarization:
    """Turn a pump_pol config value into a polarization.

    Degrees are converted at this boundary; everything downstream is
    radians.  With h_axis = minus_x the H and V labels swap.
    """
    spec = spec.strip()
    if spec.startswith("phase_deg="):
        return polarization_from_phase(math.radians(float(spec[len("phase_deg="):])))
    if spec.startswith("phase="):
        return polarization_from_phase(float(spec[len("phase="):]))
    if h_axis == "minus_x":
        spec = {"H": "V", "V": "H"}.get(spec, spec)
    return named_polarization(spec)


_DEFAULT = ExperimentConfig()


def _parse_value(key: str, value: str, where: str):
    kind = SCHEMA[key][1]
    if kind is float:
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise ConfigTypeError(f"{where}: key '{key}' expects a finite number, got {value!r}")
        return number
    if kind is int:
        try:
            return int(value)
        except ValueError:
            raise ConfigTypeError(
                f"{where}: key '{key}' expects an integer, got {value!r}"
            ) from None
    if kind is not str and value not in kind:
        raise ConfigTypeError(f"{where}: key '{key}' expects one of {kind}, got {value!r}")
    return value


def parse_config_items(items) -> ExperimentConfig:
    """Build a config from (key, value, where) triples; used by the file
    parser and by command-line overrides.  A later item for the same key
    wins."""
    kwargs: dict[str, dict] = {"": {}}
    sources: dict[str, dict] = {"": {}}  # part -> {key: where} of the items it was built from
    for key, value, where in items:
        if key not in SCHEMA:
            raise UnknownKeyError(f"{where}: unknown key '{key}'")
        part, _, attr = SCHEMA[key][0].rpartition(".")
        kwargs.setdefault(part, {})[attr] = _parse_value(key, value, where)
        sources.setdefault(part, {})[key] = where
    top = kwargs.pop("")
    try:
        for part, values in kwargs.items():
            top[part] = replace(getattr(_DEFAULT, part), **values)
        part = ""  # the top-level keys, checked by ExperimentConfig
        return ExperimentConfig(**top)
    except ValueError as exc:
        keys = ", ".join(f"{where}: key '{key}'" for key, where in sources[part].items())
        raise ConfigTypeError(f"{keys}: {exc}") from exc


def config_text_items(text: str) -> list[tuple[str, str, str]]:
    """Split config text into (key, value, 'line N') triples."""
    items = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigTypeError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        items.append((key.strip(), value.strip(), f"line {lineno}"))
    return items


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; unknown keys and malformed values report their line.

    An empty file yields the full default configuration.
    """
    return parse_config_items(config_text_items(text))


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text for a config; parse(serialize(cfg)) reproduces cfg."""
    lines = []
    for key, (path, _) in SCHEMA.items():
        value = attrgetter(path)(cfg)
        if value is not None:
            lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def resolve_delta_t_ps(cfg: ExperimentConfig) -> float:
    """Probe delay for wavelength sweeps; defaults to the quarter period."""
    if cfg.delta_t_ps is not None:
        return float(cfg.delta_t_ps)
    from .dynamics import larmor_omega, quarter_period_ps

    bx = cfg.field.bx_tesla
    if bx == 0.0:
        raise MissingKeyError("delta_t_ps is required when the field is zero (no precession period)")
    qp = quarter_period_ps(larmor_omega(cfg.material.g_e, bx))
    if not math.isfinite(qp):
        raise MissingKeyError(f"b_field_tesla = {bx!r} T is too small for a finite quarter period "
                              f"at g_e = {cfg.material.g_e!r}; set delta_t_ps")
    return qp


def resolve_lambda_window(cfg: ExperimentConfig) -> tuple[float, float]:
    """Wavelength sweep window; each unset end defaults to the excited
    line's centre (lambda_lh_nm or lambda_hh_nm) -+ 1.5 nm."""
    m = cfg.material
    center = m.lambda_hh_nm if cfg.exciton == "hh" else m.lambda_lh_nm
    lo = center - 1.5 if cfg.lambda_min_nm is None else cfg.lambda_min_nm
    hi = center + 1.5 if cfg.lambda_max_nm is None else cfg.lambda_max_nm
    if not lo < hi:
        raise MissingKeyError("wavelength window is empty; set lambda_min_nm < lambda_max_nm")
    try:
        check_wavelength("lambda_min_nm", lo)
        check_wavelength("lambda_max_nm", hi)
    except ValueError as exc:
        raise ConfigTypeError(f"{exc}; set lambda_min_nm and lambda_max_nm") from exc
    return float(lo), float(hi)
