"""JSON problem and policy files.

Problem files::

    {"mdp": {"n_states": ..., "n_actions": ...,
             "transitions": [[s, a, s', p], ...],
             "rewards": {"kind": "sa" | "sas", "values": ...},
             "initial_state": ..., "horizon": <int> | "infinite"},
     "wealth_space": {"kind": "additive" | "discounted" | "ordinal",
                      "gamma": <number>?, "classes": [<label>, ...]?,
                      "transition_table": {...}?, "w0": <label>?}}

"sa" reward values are a nested n_states x n_actions list; "sas" values
are a flat list aligned with the transitions rows.  Numeric wealth bounds
are derived from the MDP's rewards and horizon on load.

Policy files are a JSON list of ``{"t": ..., "s": ..., "intervals":
[{"from": <wealth|null>, "inclusive_from": ..., "action": <int>}]}``;
stationary policies omit "t".  A null "from" opens the bottom interval.

All writes are whole-file atomic (write to a temp file, then rename).
"""

import json
import numbers
import os
import tempfile

import numpy as np

from .dp import WealthMarkovPolicy
from .errors import ConfigurationError, ValidationError
from .mdp import Mdp
from .stepfun import StepFunction
from .wealth import AdditiveWealth, DiscountedWealth, OrdinalWealth


def atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- problems ---------------------------------------------------------------

def mdp_to_dict(m):
    s, a = np.divmod(m.pair, m.n_actions)
    rows = [list(edge) for edge in zip(s.tolist(), a.tolist(), m.succ.tolist(),
                                       m.prob.tolist())]
    if m.reward_kind == "sas":
        values = list(m.rewards)
    elif m.numeric_rewards:
        values = m.reward_table.tolist()
    else:
        values = [list(row) for row in m.reward_table]
    return {
        "n_states": m.n_states,
        "n_actions": m.n_actions,
        "transitions": rows,
        "rewards": {"kind": m.reward_kind, "values": values},
        "initial_state": m.initial_state,
        "horizon": "infinite" if m.horizon is None else m.horizon,
    }


def _require(d, keys, where):
    if not isinstance(d, dict):
        raise ValidationError(f"{where} is not a JSON object")
    missing = [k for k in keys if k not in d]
    if missing:
        raise ValidationError([f"{where} has no {k!r}" for k in missing])


def mdp_from_dict(d):
    _require(d, ("n_states", "n_actions", "transitions", "rewards",
                 "initial_state", "horizon"), "problem 'mdp'")
    _require(d["rewards"], ("kind", "values"), "problem 'rewards'")
    horizon = d["horizon"]
    if horizon in ("infinite", "inf", None):
        horizon = None
    return Mdp.from_rows(d["n_states"], d["n_actions"], d["transitions"],
                         d["rewards"], d["initial_state"], horizon)


def space_to_dict(space):
    if isinstance(space, AdditiveWealth):
        return {"kind": "additive"}
    if isinstance(space, DiscountedWealth):
        return {"kind": "discounted", "gamma": space.gamma}
    if isinstance(space, OrdinalWealth):
        out = {"kind": "ordinal", "classes": list(space.classes)}
        if space.transition_table is not None:
            out["transition_table"] = space.transition_table
        if space.w0 != space.classes[0]:
            out["w0"] = space.w0
        return out
    raise ConfigurationError(f"unknown wealth space {space!r}")


def _is_label(x):
    """A JSON scalar: the labels and classes a dict or set can hold."""
    return x is None or isinstance(x, (str, int, float))


def space_from_dict(d, m):
    kind = d.get("kind")
    if kind == "additive":
        return AdditiveWealth.for_mdp(m)
    if kind == "discounted":
        gamma = d.get("gamma")
        if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real):
            raise ConfigurationError("discounted wealth space needs a numeric 'gamma'")
        return DiscountedWealth.for_mdp(m, gamma)
    if kind == "ordinal":
        classes, table = d.get("classes"), d.get("transition_table")
        if not (isinstance(classes, list) and all(map(_is_label, classes))):
            raise ConfigurationError("ordinal wealth space needs a list of 'classes'")
        if table is not None and not (
                isinstance(table, dict)
                and all(isinstance(row, dict) and all(map(_is_label, row.values()))
                        for row in table.values())):
            raise ConfigurationError(
                "an ordinal 'transition_table' maps each class to a "
                "{reward label: class} object")
        if not _is_label(d.get("w0")):
            raise ConfigurationError("ordinal 'w0' must be a class")
        return OrdinalWealth(classes, table, w0=d.get("w0"))
    raise ConfigurationError(
        f"wealth space kind must be additive/discounted/ordinal, got {kind!r}")


def problem_to_dict(m, space):
    return {"mdp": mdp_to_dict(m), "wealth_space": space_to_dict(space)}


def problem_from_dict(d):
    _require(d, ("mdp", "wealth_space"), "problem file")
    _require(d["wealth_space"], (), "problem 'wealth_space'")
    m = mdp_from_dict(d["mdp"])
    space = space_from_dict(d["wealth_space"], m)
    if isinstance(space, OrdinalWealth):
        # the table must move every class to a class on every reward label
        for r in m.rewards:
            try:
                space.move_table(r)
            except ConfigurationError as exc:
                raise ValidationError([str(exc)]) from None
            except TypeError:
                raise ValidationError([
                    f"reward label {r!r} cannot index the class-transition "
                    "table"]) from None
    return m, space


def save_problem(path, m, space):
    atomic_write_text(path, json.dumps(problem_to_dict(m, space)))


def load_problem(path):
    with open(path) as fh:
        return problem_from_dict(json.load(fh))


# -- policies ---------------------------------------------------------------

def _rule_to_intervals(rule, space):
    return [{"from": None if frm is None else space.unkey(frm),
             "inclusive_from": inclusive, "action": action}
            for frm, inclusive, action in rule.intervals()]


def policy_to_payload(policy, space):
    entries = []
    if policy.stationary:
        for s, rule in enumerate(policy.rules):
            entries.append({"s": s, "intervals": _rule_to_intervals(rule, space)})
    else:
        for t, row in enumerate(policy.rules):
            for s, rule in enumerate(row):
                entries.append({"t": t, "s": s,
                                "intervals": _rule_to_intervals(rule, space)})
    return entries


def _intervals_to_rule(intervals, space):
    base = 0
    cuts = []
    for item in intervals:
        a = item["action"]
        if isinstance(a, bool) or not isinstance(a, numbers.Integral):
            raise ConfigurationError(f"policy action {a!r} is not an integer")
        if item["from"] is None:
            base = a
            continue
        k = space.key(item["from"])
        if k != k:
            raise ConfigurationError("policy interval starts at NaN")
        cuts.append((k, bool(item["inclusive_from"]), a))
    return StepFunction(base, [c[0] for c in cuts], [c[1] for c in cuts],
                        [c[2] for c in cuts])


def policy_from_payload(payload, space, n_states):
    if not isinstance(payload, list) or not payload:
        raise ConfigurationError("a policy payload is a non-empty list of entries")
    try:
        return _policy_from_entries(payload, space, n_states)
    except KeyError as exc:
        raise ConfigurationError(
            f"policy entry without {exc.args[0]!r}") from None
    except (TypeError, OverflowError) as exc:
        raise ConfigurationError(f"malformed policy entry: {exc}") from None


def _entry_index(entry, name, stop):
    i = entry[name]
    if isinstance(i, bool) or not isinstance(i, numbers.Integral) or not 0 <= i < stop:
        raise ConfigurationError(
            f"policy entry {name}={i!r} is not an integer in [0, {stop})")
    return i


def _policy_from_entries(payload, space, n_states):
    stationary = "t" not in payload[0]
    # a policy lists every step it covers, so no step lies past its
    # entry count
    steps = [0 if stationary else _entry_index(entry, "t", len(payload))
             for entry in payload]
    rules = [[StepFunction.constant(0) for _ in range(n_states)]
             for _ in range(max(steps) + 1)]
    for t, entry in zip(steps, payload):
        s = _entry_index(entry, "s", n_states)
        rules[t][s] = _intervals_to_rule(entry["intervals"], space)
    if stationary:
        return WealthMarkovPolicy(rules[0], stationary=True)
    return WealthMarkovPolicy(rules)


def save_policy(path, policy, space):
    atomic_write_text(path, json.dumps(policy_to_payload(policy, space)))


def load_policy(path, space, n_states):
    with open(path) as fh:
        return policy_from_payload(json.load(fh), space, n_states)
