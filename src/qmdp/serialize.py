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
    rows = []
    sas_values = []
    for s in range(m.n_states):
        for a in range(m.n_actions):
            succ = m.successors(s, a)
            prob = m.probabilities(s, a)
            rs = m.edge_rewards(s, a)
            for i in range(len(succ)):
                rows.append([s, a, int(succ[i]), float(prob[i])])
                if m.reward_kind == "sas":
                    sas_values.append(rs[i])
    if m.reward_kind == "sas":
        rewards = {"kind": "sas", "values": sas_values}
    else:
        rewards = m.rewards_payload()
    return {
        "n_states": m.n_states,
        "n_actions": m.n_actions,
        "transitions": rows,
        "rewards": rewards,
        "initial_state": m.initial_state,
        "horizon": "infinite" if m.horizon is None else m.horizon,
    }


def _require(d, keys, where):
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


def space_from_dict(d, m):
    kind = d.get("kind")
    if kind == "additive":
        return AdditiveWealth.for_mdp(m)
    if kind == "discounted":
        if "gamma" not in d:
            raise ConfigurationError("discounted wealth space needs 'gamma'")
        return DiscountedWealth.for_mdp(m, d["gamma"])
    if kind == "ordinal":
        if "classes" not in d:
            raise ConfigurationError("ordinal wealth space needs 'classes'")
        return OrdinalWealth(d["classes"], d.get("transition_table"),
                             w0=d.get("w0"))
    raise ConfigurationError(
        f"wealth space kind must be additive/discounted/ordinal, got {kind!r}")


def problem_to_dict(m, space):
    return {"mdp": mdp_to_dict(m), "wealth_space": space_to_dict(space)}


def problem_from_dict(d):
    _require(d, ("mdp", "wealth_space"), "problem file")
    m = mdp_from_dict(d["mdp"])
    space = space_from_dict(d["wealth_space"], m)
    if isinstance(space, OrdinalWealth):
        # the table must move every class to a class on every reward label
        for r in m.all_rewards():
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
        else:
            cuts.append((space.key(item["from"]), bool(item["inclusive_from"]), a))
    return StepFunction(base, [c[0] for c in cuts], [c[1] for c in cuts],
                        [c[2] for c in cuts])


def policy_from_payload(payload, space, n_states):
    if not payload:
        raise ConfigurationError("empty policy payload")
    try:
        return _policy_from_entries(payload, space, n_states)
    except KeyError as exc:
        raise ConfigurationError(
            f"policy entry without {exc.args[0]!r}") from None


def _policy_from_entries(payload, space, n_states):
    for entry in payload:
        if not 0 <= entry["s"] < n_states:
            raise ConfigurationError(
                f"policy entry for state {entry['s']} does not fit a problem "
                f"with {n_states} states")
    stationary = "t" not in payload[0]
    if stationary:
        rules = [StepFunction.constant(0) for _ in range(n_states)]
        for entry in payload:
            rules[entry["s"]] = _intervals_to_rule(entry["intervals"], space)
        return WealthMarkovPolicy(rules, stationary=True)
    T = max(entry["t"] for entry in payload) + 1
    rules = [[StepFunction.constant(0) for _ in range(n_states)] for _ in range(T)]
    for entry in payload:
        rules[entry["t"]][entry["s"]] = _intervals_to_rule(entry["intervals"], space)
    return WealthMarkovPolicy(rules)


def save_policy(path, policy, space):
    atomic_write_text(path, json.dumps(policy_to_payload(policy, space)))


def load_policy(path, space, n_states):
    with open(path) as fh:
        return policy_from_payload(json.load(fh), space, n_states)
