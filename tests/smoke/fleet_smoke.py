# Fleet smoke: a healthy fleet's in-sim /fleet rollup and /metrics with
# no burn-rate alert, and a stalled fleet's one alert plus flight dump.
# Reads the outputs tests/smoke/smoke.cmake leaves in the working
# directory; ctest runs both (test smoke_fleet, label `gate`).
import json, os, re

# Healthy fleet: the in-sim monitor must serve the full
# rollup and the burn-rate alert must stay quiet.
out = open('fleet.out').read()
m = re.search(r'--- /fleet \(in-sim\) ---\n(.*?)--- end /fleet ---',
              out, re.S)
assert m, 'no in-sim /fleet capture'
doc = json.loads(m.group(1))
assert len(doc['domains']) >= 8, doc.keys()
fleet = doc['fleet']
assert fleet['requests'] > 0 and fleet['latency']['p99_ns'] > 0
# The merged fleet quantile must equal the pooled population:
# re-merge the per-domain counts and sanity-check the shape.
assert fleet['requests'] == sum(d['requests']
                                for d in doc['domains'])
boots = doc['boot']
assert boots['completed'] >= 8, boots
for phase in ('toolstack', 'build', 'layout', 'page_setup',
              'device_connect', 'stack_up'):
    assert phase in boots['phases'], boots['phases'].keys()
assert boots['first_request']['count'] >= 8, \
    boots['first_request']
assert 'per-domain labels present' in out, 'no fleet /metrics'
assert 'slo: 0 burn-rate alert(s)' in out, 'healthy fleet paged'

# Stalled appliance: exactly one latched burn-rate alert and
# an auto-dumped flight recording.
stall = open('fleet_stall.out').read()
assert 'slo: 1 burn-rate alert(s)' in stall, stall[-400:]
assert re.search(r'burn rate [\d.]+x over .*threshold', stall)
assert os.path.getsize('fleet_flight.json') > 0, \
    'breach did not dump the flight recorder'
d = json.load(open('fleet_flight.json'))
assert d['traceEvents'], 'flight dump is empty'
print('fleet smoke ok: %d domains, fleet p99 present, '
      '1 burn alert + flight dump on --stall'
      % len(doc['domains']))
