"""Writer of the case file format (docs/case_format.md): the inverse of
`grid_model.parse_case`, for tests that change a case in code and hand it
to the program as a file."""


def serialize_case(case) -> str:
    """Inverse of parse_case; numbers use repr so a reparse is bit-exact."""
    out = [f"CASE T={case.periods} SHED_PENALTY={case.shed_penalty!r} "
           f"BASE_MVA={case.base_mva!r}"]
    out.append("BUS")
    for b in case.buses:
        out.append(f"{b.id} " + " ".join(repr(float(v)) for v in b.load))
    out.append("BRANCH")
    for ln in case.lines:
        out.append(f"{ln.from_bus} {ln.to_bus} {float(ln.reactance)!r} "
                   f"{float(ln.flow_min)!r} {float(ln.flow_max)!r}")
    out.append("GEN")
    for g in case.generators:
        out.append(" ".join([str(g.bus)] + [
            repr(float(v)) for v in (g.p_min, g.p_max, g.cost_const,
                                     g.cost_linear, g.cost_quad, g.ramp_up,
                                     g.ramp_down, g.startup, g.shutdown)]))
    out.append("RENEWABLE")
    for s in case.renewable_sites:
        out.append(f"{s.bus} {s.site_label} {float(s.nameplate)!r}")
    out.append("COMMITMENT")
    for k, g in enumerate(case.generators):
        out.append(f"{k} " + " ".join(str(v) for v in g.commitment))
    return "\n".join(out) + "\n"
