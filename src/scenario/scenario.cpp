#include "polaris/scenario/scenario.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "polaris/support/check.hpp"

namespace polaris::scenario {

std::string Verdict::to_json() const {
  const auto outcomes = [](const std::vector<CheckOutcome>& list,
                           bool monitor) {
    Json arr = Json::array();
    for (const CheckOutcome& c : list) {
      Json o = Json::object();
      o.set("name", Json::string(c.name));
      o.set("passed", Json::boolean(c.passed));
      if (monitor) {
        o.set("checks", Json::number(static_cast<double>(c.checks)));
        o.set("violations", Json::number(static_cast<double>(c.violations)));
        o.set("first_violation_s", Json::number(c.first_violation_s));
      } else {
        o.set("time_s", Json::number(c.time_s));
      }
      arr.push(std::move(o));
    }
    return arr;
  };
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(trace_hash));
  Json counter_obj = Json::object();
  for (const auto& [name, value] : counters) {
    counter_obj.set(name, Json::number(value));
  }
  Json doc = Json::object();
  doc.set("scenario", Json::string(scenario));
  doc.set("passed", Json::boolean(passed));
  doc.set("root", Json::string(to_string(root)));
  doc.set("monitors_clean", Json::boolean(monitors_clean));
  doc.set("ticks", Json::number(static_cast<double>(ticks)));
  doc.set("end_time_s", Json::number(end_time_s));
  doc.set("trace_hash", Json::string(hex));
  doc.set("trace_events", Json::number(static_cast<double>(trace_events)));
  doc.set("asserts", outcomes(asserts, /*monitor=*/false));
  doc.set("monitors", outcomes(monitors, /*monitor=*/true));
  doc.set("counters", std::move(counter_obj));
  return doc.dump();
}

// -------------------------------------------------------------------- Expr

Expr Expr::compile(std::string_view text) {
  Expr e;
  e.text_ = std::string(text);
  // Tokenize on spaces: "probe", or "probe OP number".
  std::vector<std::string> tok;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && text[i] == ' ') ++i;
    std::size_t j = i;
    while (j < text.size() && text[j] != ' ') ++j;
    if (j > i) tok.emplace_back(text.substr(i, j - i));
    i = j;
  }
  POLARIS_CHECK_MSG(tok.size() == 1 || tok.size() == 3,
                    "expression must be `probe` or `probe OP value`: " +
                        e.text_);
  e.probe_ = tok[0];
  if (tok.size() == 3) {
    const std::string& op = tok[1];
    if (op == "<") e.op_ = Op::kLt;
    else if (op == "<=") e.op_ = Op::kLe;
    else if (op == ">") e.op_ = Op::kGt;
    else if (op == ">=") e.op_ = Op::kGe;
    else if (op == "==") e.op_ = Op::kEq;
    else if (op == "!=") e.op_ = Op::kNe;
    else POLARIS_CHECK_MSG(false, "unknown operator in: " + e.text_);
    char* end = nullptr;
    e.rhs_ = std::strtod(tok[2].c_str(), &end);
    POLARIS_CHECK_MSG(end != nullptr && *end == '\0',
                      "bad numeric literal in: " + e.text_);
  }
  return e;
}

double Expr::value(Harness& h) const { return h.probe(probe_); }

bool Expr::eval(Harness& h) const {
  const double v = value(h);
  switch (op_) {
    case Op::kTruthy:
      return v != 0.0;
    case Op::kLt:
      return v < rhs_;
    case Op::kLe:
      return v <= rhs_;
    case Op::kGt:
      return v > rhs_;
    case Op::kGe:
      return v >= rhs_;
    case Op::kEq:
      return v == rhs_;
    case Op::kNe:
      return v != rhs_;
  }
  return false;
}

// ------------------------------------------------------------------ Runner

Runner::Runner(Json spec) : spec_(std::move(spec)) {
  POLARIS_CHECK_MSG(spec_.is_object(), "scenario spec must be an object");
  POLARIS_CHECK_MSG(spec_.has("harness"), "scenario spec needs a harness");
  POLARIS_CHECK_MSG(spec_.has("tree"), "scenario spec needs a tree");

  harness_ = make_harness(spec_);
  track_ = harness_->tracer().add_track("scenario", "tree");

  const double tick_s = spec_.num_or("tick_s", 1e-3);
  POLARIS_CHECK(tick_s > 0.0);
  tick_ticks_ = des::from_seconds(tick_s);
  POLARIS_CHECK(tick_ticks_ >= 1);
  max_ticks_ =
      static_cast<std::uint64_t>(spec_.num_or("max_ticks", 200'000.0));
  monitor_until_s_ = spec_.num_or("monitor_until_s", 0.0);

  root_ = build(spec_.at("tree"));

  if (const Json* mons = spec_.find("monitors")) {
    for (const Json& m : mons->items()) {
      Monitor mon;
      mon.name = m.str_or("name", m.str_or("expect", "monitor"));
      const Expr expr = Expr::compile(m.at("expect").str());
      Harness* h = harness_.get();
      mon.ok = [h, expr](TickContext&) { return expr.eval(*h); };
      monitors_.push_back(std::move(mon));
    }
  }
}

Runner Runner::from_text(std::string_view spec_text) {
  return Runner(Json::parse(spec_text));
}

NodePtr Runner::leaf_await(const Json& node) {
  const Expr expr = Expr::compile(node.at("await").str());
  Harness* h = harness_.get();
  return std::make_unique<WaitUntil>(
      "await " + expr.text(),
      [h, expr](TickContext&) { return expr.eval(*h); });
}

NodePtr Runner::build(const Json& node) {
  POLARIS_CHECK_MSG(node.is_object(), "tree node must be an object");

  auto build_children = [this](const Json& arr) {
    std::vector<NodePtr> out;
    for (const Json& c : arr.items()) out.push_back(build(c));
    return out;
  };

  if (const Json* seq = node.find("seq")) {
    return std::make_unique<Sequence>("seq", build_children(*seq));
  }
  if (const Json* any = node.find("any")) {
    return std::make_unique<Fallback>("any", build_children(*any));
  }
  if (const Json* par = node.find("par")) {
    return std::make_unique<Parallel>(
        "par", build_children(*par),
        static_cast<std::size_t>(node.num_or("quota", 0.0)));
  }
  if (const Json* body = node.find("do")) {
    if (node.has("repeat")) {
      return std::make_unique<Repeat>(
          "repeat", build(*body),
          static_cast<std::uint64_t>(node.at("repeat").num()));
    }
    POLARIS_CHECK_MSG(node.has("timeout"), "`do` needs repeat or timeout");
    return std::make_unique<Timeout>("timeout", build(*body),
                                     node.at("timeout").num());
  }
  if (const Json* wait = node.find("wait")) {
    return std::make_unique<Wait>("wait", wait->num());
  }
  if (node.has("await")) {
    NodePtr w = leaf_await(node);
    if (node.has("timeout")) {
      return std::make_unique<Timeout>("timeout " + w->name(), std::move(w),
                                       node.at("timeout").num());
    }
    return w;
  }
  if (const Json* expr_j = node.find("assert")) {
    const Expr expr = Expr::compile(expr_j->str());
    Harness* h = harness_.get();
    obs::Tracer* tracer = &harness_->tracer();
    const obs::TrackId track = track_;
    const std::size_t idx = asserts_.size();
    auto cond = std::make_unique<Condition>(
        "assert " + expr.text(),
        [this, h, expr, tracer, track, idx](TickContext& ctx) {
          const bool ok = expr.eval(*h);
          assert_times_[idx] = ctx.now_s;
          tracer->instant(track,
                          std::string(ok ? "pass: " : "FAIL: ") + expr.text(),
                          "assert");
          return ok;
        });
    asserts_.push_back(cond.get());
    assert_times_.push_back(-1.0);
    return cond;
  }

  // Anything else with exactly one member is a harness action verb.
  POLARIS_CHECK_MSG(node.members().size() == 1,
                    "unrecognized tree node: " + node.dump());
  const auto& [verb, args] = node.members().front();
  Harness* h = harness_.get();
  obs::Tracer* tracer = &harness_->tracer();
  const obs::TrackId track = track_;
  const std::string verb_copy = verb;
  const Json args_copy = args;
  return std::make_unique<Action>(
      verb, [h, verb_copy, args_copy, tracer, track](TickContext& ctx) {
        tracer->instant(track, verb_copy + " " + args_copy.dump(), "action");
        h->act(verb_copy, args_copy, ctx.now_s);
        return Status::kSuccess;
      });
}

void Runner::tick_cb(void* ctx) { static_cast<Runner*>(ctx)->tick(); }

void Runner::tick() {
  des::Engine& engine = harness_->engine();
  TickContext ctx{des::to_seconds(engine.now()), ticks_done_};
  for (Monitor& m : monitors_) {
    const std::uint64_t before = m.violations;
    m.check(ctx);
    if (m.violations == 1 && before == 0) {
      harness_->tracer().instant(track_, "VIOLATION: " + m.name, "monitor");
    }
  }
  if (root_->status() == Status::kRunning) {
    const Status s = root_->tick(ctx);
    if (s != Status::kRunning) {
      harness_->tracer().instant(
          track_, std::string("tree ") + to_string(s), "tree");
    }
  }
  ++ticks_done_;
  const bool tree_live = root_->status() == Status::kRunning;
  const bool monitors_live = ctx.now_s < monitor_until_s_;
  if ((tree_live || monitors_live) && ticks_done_ < max_ticks_) {
    engine.schedule_raw_at(engine.now() + tick_ticks_, &Runner::tick_cb,
                           this);
  }
}

Verdict Runner::run() {
  POLARIS_CHECK_MSG(!ran_, "Runner::run is one-shot");
  ran_ = true;

  des::Engine& engine = harness_->engine();
  engine.schedule_raw_at(engine.now() + tick_ticks_, &Runner::tick_cb, this);
  harness_->start();
  harness_->finish();

  Verdict v;
  v.scenario = spec_.str_or("name", "unnamed");
  v.root = root_->status();
  v.ticks = ticks_done_;
  v.end_time_s = des::to_seconds(engine.now());
  for (std::size_t i = 0; i < asserts_.size(); ++i) {
    const Condition* a = asserts_[i];
    CheckOutcome c;
    c.name = a->name();
    c.passed = a->status() == Status::kSuccess;
    // Not-yet-evaluated asserts (tree never reached them) report failed
    // with time -1, which is what you want a wedged scenario to say.
    if (a->status() == Status::kRunning) c.passed = false;
    c.time_s = assert_times_[i];
    v.asserts.push_back(std::move(c));
  }
  for (const Monitor& m : monitors_) {
    CheckOutcome c;
    c.name = m.name;
    c.passed = m.clean();
    c.checks = m.checks;
    c.violations = m.violations;
    c.first_violation_s = m.first_violation_s;
    v.monitors_clean = v.monitors_clean && m.clean();
    v.monitors.push_back(std::move(c));
  }
  v.passed = v.root == Status::kSuccess && v.monitors_clean;
  for (const std::string& name : harness_->counter_probes()) {
    v.counters.emplace_back(name, harness_->probe(name));
  }
  v.trace_hash = obs::trace_hash(harness_->tracer());
  v.trace_events = harness_->tracer().event_count();
  return v;
}

const obs::Tracer& Runner::tracer() const { return harness_->tracer(); }

Verdict run_scenario(std::string_view spec_text) {
  return Runner::from_text(spec_text).run();
}

}  // namespace polaris::scenario
