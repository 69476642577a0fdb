/**
 * @file
 * Value/object-model unit tests: reference counting, equality and
 * hashing semantics, truthiness, repr, the dict (open addressing,
 * tombstones, insertion order), range and iterators.
 */

#include <gtest/gtest.h>

#include "support/logging.hh"
#include "vm/value.hh"

namespace rigor {
namespace vm {
namespace {

TEST(Value, TagsAndAccessors)
{
    EXPECT_TRUE(Value().isNone());
    EXPECT_TRUE(Value::makeBool(true).asBool());
    EXPECT_EQ(Value::makeInt(-7).asInt(), -7);
    EXPECT_DOUBLE_EQ(Value::makeFloat(2.5).asFloat(), 2.5);
    Value s = makeStr("hi");
    EXPECT_TRUE(s.isObjKind(ObjKind::Str));
}

TEST(Value, RefCountingCopyAndMove)
{
    StrObj *raw = new StrObj("x");
    Value a = Value::makeObj(raw);
    EXPECT_EQ(raw->refs(), 1u);
    {
        Value b = a;  // copy increments
        EXPECT_EQ(raw->refs(), 2u);
        Value c = std::move(b);  // move transfers
        EXPECT_EQ(raw->refs(), 2u);
        EXPECT_TRUE(b.isNone());
    }
    EXPECT_EQ(raw->refs(), 1u);
    a = Value();  // releasing the last ref deletes; no leak under
                  // ASan and no crash here.
}

TEST(Value, AssignmentReleasesOldReference)
{
    StrObj *first = new StrObj("first");
    StrObj *second = new StrObj("second");
    second->incRef();  // keep alive to observe counts
    Value v = Value::makeObj(first);
    v = Value::makeObj(second);
    EXPECT_EQ(second->refs(), 2u);
    v = Value();
    EXPECT_EQ(second->refs(), 1u);
    second->decRef();
}

TEST(Value, SelfAssignmentSafe)
{
    Value v = makeStr("self");
    Value &ref = v;
    v = ref;
    EXPECT_EQ(v.str(), "self");
}

TEST(Value, NumericEqualityCrossesTypes)
{
    EXPECT_TRUE(Value::makeInt(1).equals(Value::makeFloat(1.0)));
    EXPECT_TRUE(Value::makeBool(true).equals(Value::makeInt(1)));
    EXPECT_FALSE(Value::makeInt(1).equals(Value::makeInt(2)));
    EXPECT_FALSE(Value().equals(Value::makeInt(0)));
    EXPECT_TRUE(Value().equals(Value()));
}

TEST(Value, StructuralEqualityForContainers)
{
    auto *l1 = new ListObj();
    l1->items.push_back(Value::makeInt(1));
    l1->items.push_back(makeStr("a"));
    auto *l2 = new ListObj();
    l2->items.push_back(Value::makeInt(1));
    l2->items.push_back(makeStr("a"));
    Value a = Value::makeObj(l1), b = Value::makeObj(l2);
    EXPECT_TRUE(a.equals(b));
    l2->items.push_back(Value());
    EXPECT_FALSE(a.equals(b));
}

TEST(Value, HashConsistency)
{
    uint64_t seed = 12345;
    // Equal values hash equally (including int/float equivalence).
    EXPECT_EQ(Value::makeInt(7).hash(seed),
              Value::makeFloat(7.0).hash(seed));
    EXPECT_EQ(makeStr("key").hash(seed), makeStr("key").hash(seed));
    // Different seeds give different string hashes (randomization).
    EXPECT_NE(makeStr("key").hash(1), makeStr("key").hash(2));
}

TEST(Value, UnhashableTypesThrow)
{
    Value l = Value::makeObj(new ListObj());
    EXPECT_THROW(l.hash(0), VmError);
    Value d = Value::makeObj(new DictObj(0));
    EXPECT_THROW(d.hash(0), VmError);
}

TEST(Value, Truthiness)
{
    EXPECT_FALSE(Value().truthy());
    EXPECT_FALSE(Value::makeInt(0).truthy());
    EXPECT_TRUE(Value::makeInt(-1).truthy());
    EXPECT_FALSE(Value::makeFloat(0.0).truthy());
    EXPECT_FALSE(makeStr("").truthy());
    EXPECT_TRUE(makeStr("x").truthy());
    Value empty_list = Value::makeObj(new ListObj());
    EXPECT_FALSE(empty_list.truthy());
    Value r0 = Value::makeObj(new RangeObj(0, 0, 1));
    EXPECT_FALSE(r0.truthy());
    Value r1 = Value::makeObj(new RangeObj(0, 5, 1));
    EXPECT_TRUE(r1.truthy());
}

TEST(Value, ReprFormats)
{
    EXPECT_EQ(Value().repr(), "None");
    EXPECT_EQ(Value::makeBool(true).repr(), "True");
    EXPECT_EQ(Value::makeFloat(2.0).repr(), "2.0");
    EXPECT_EQ(Value::makeFloat(2.5).repr(), "2.5");
    EXPECT_EQ(makeStr("hi").repr(), "'hi'");
    EXPECT_EQ(makeStr("hi").str(), "hi");
    auto *t = new TupleObj();
    t->items.push_back(Value::makeInt(1));
    EXPECT_EQ(Value::makeObj(t).repr(), "(1,)");
}

TEST(Dict, SetGetOverwrite)
{
    DictObj d(42);
    d.incRef();
    d.set(makeStr("a"), Value::makeInt(1));
    d.set(makeStr("b"), Value::makeInt(2));
    d.set(makeStr("a"), Value::makeInt(10));
    EXPECT_EQ(d.size(), 2u);
    EXPECT_EQ(d.find(makeStr("a"))->asInt(), 10);
    EXPECT_EQ(d.find(makeStr("b"))->asInt(), 2);
    EXPECT_EQ(d.find(makeStr("c")), nullptr);
}

TEST(Dict, EraseAndTombstoneReuse)
{
    DictObj d(7);
    d.incRef();
    for (int i = 0; i < 100; ++i)
        d.set(Value::makeInt(i), Value::makeInt(i * 2));
    for (int i = 0; i < 100; i += 2)
        EXPECT_TRUE(d.erase(Value::makeInt(i)));
    EXPECT_FALSE(d.erase(Value::makeInt(0)));  // already gone
    EXPECT_EQ(d.size(), 50u);
    for (int i = 1; i < 100; i += 2)
        EXPECT_EQ(d.find(Value::makeInt(i))->asInt(), i * 2);
    // Reinsert over tombstones.
    for (int i = 0; i < 100; i += 2)
        d.set(Value::makeInt(i), Value::makeInt(-i));
    EXPECT_EQ(d.size(), 100u);
    EXPECT_EQ(d.find(Value::makeInt(4))->asInt(), -4);
}

TEST(Dict, InsertionOrderSurvivesRehash)
{
    DictObj d(99);
    d.incRef();
    for (int i = 0; i < 200; ++i)
        d.set(makeStr(strprintf("k%d", i)), Value::makeInt(i));
    int expected = 0;
    for (const auto &e : d.entries()) {
        if (!e.live)
            continue;
        EXPECT_EQ(e.value.asInt(), expected);
        ++expected;
    }
    EXPECT_EQ(expected, 200);
}

TEST(Dict, GrowsUnderLoad)
{
    DictObj d(3);
    d.incRef();
    for (int i = 0; i < 10000; ++i)
        d.set(Value::makeInt(i), Value::makeInt(i));
    EXPECT_EQ(d.size(), 10000u);
    for (int i = 0; i < 10000; i += 997)
        EXPECT_NE(d.find(Value::makeInt(i)), nullptr);
    d.clear();
    EXPECT_EQ(d.size(), 0u);
    EXPECT_EQ(d.find(Value::makeInt(5)), nullptr);
}


TEST(Dict, ChurnDoesNotExhaustProbeSlots)
{
    // Insert/erase thousands of distinct keys while keeping the dict
    // small: tombstones must not starve the probe chains (a lookup
    // of an absent key must still terminate).
    DictObj d(11);
    for (int i = 0; i < 20000; ++i) {
        d.set(Value::makeInt(i), Value::makeInt(i));
        if (i >= 8) {
            EXPECT_TRUE(d.erase(Value::makeInt(i - 8)));
        }
        // Absent-key lookup exercises full probe chains.
        EXPECT_EQ(d.find(Value::makeInt(-1 - i)), nullptr);
    }
    EXPECT_EQ(d.size(), 8u);
}

TEST(Range, LengthComputation)
{
    EXPECT_EQ(RangeObj(0, 10, 1).length(), 10);
    EXPECT_EQ(RangeObj(0, 10, 3).length(), 4);
    EXPECT_EQ(RangeObj(10, 0, -1).length(), 10);
    EXPECT_EQ(RangeObj(10, 0, -3).length(), 4);
    EXPECT_EQ(RangeObj(5, 5, 1).length(), 0);
    EXPECT_EQ(RangeObj(5, 0, 1).length(), 0);
    EXPECT_THROW(RangeObj(0, 5, 0).length(), VmError);
}

TEST(Iterator, RangeIteration)
{
    Value r = Value::makeObj(new RangeObj(2, 10, 3));
    IteratorObj it(IteratorObj::Source::Range, r);
    Value out;
    std::vector<int64_t> seen;
    while (it.next(out, 0))
        seen.push_back(out.asInt());
    EXPECT_EQ(seen, (std::vector<int64_t>{2, 5, 8}));
}

TEST(Iterator, DictItemsYieldsPairs)
{
    auto *d = new DictObj(5);
    Value dv = Value::makeObj(d);
    d->set(makeStr("x"), Value::makeInt(1));
    d->set(makeStr("y"), Value::makeInt(2));
    IteratorObj it(IteratorObj::Source::DictItems, dv);
    Value out;
    ASSERT_TRUE(it.next(out, 5));
    ASSERT_TRUE(out.isObjKind(ObjKind::Tuple));
    auto *t = static_cast<TupleObj *>(out.asObj());
    EXPECT_EQ(t->items[0].str(), "x");
    EXPECT_EQ(t->items[1].asInt(), 1);
}

TEST(Iterator, SkipsTombstones)
{
    auto *d = new DictObj(5);
    Value dv = Value::makeObj(d);
    for (int i = 0; i < 6; ++i)
        d->set(Value::makeInt(i), Value::makeInt(i));
    d->erase(Value::makeInt(0));
    d->erase(Value::makeInt(3));
    IteratorObj it(IteratorObj::Source::DictKeys, dv);
    Value out;
    std::vector<int64_t> keys;
    while (it.next(out, 5))
        keys.push_back(out.asInt());
    EXPECT_EQ(keys, (std::vector<int64_t>{1, 2, 4, 5}));
}

TEST(ClassObject, LookupWalksBaseChain)
{
    auto *base = new ClassObj(1);
    base->incRef();
    base->name = "Base";
    base->attrs->set(makeStr("m"), Value::makeInt(100));
    auto *derived = new ClassObj(1);
    derived->incRef();
    derived->name = "Derived";
    derived->base = base;
    base->incRef();

    EXPECT_EQ(derived->lookup(makeStr("m"))->asInt(), 100);
    derived->attrs->set(makeStr("m"), Value::makeInt(200));
    EXPECT_EQ(derived->lookup(makeStr("m"))->asInt(), 200);
    EXPECT_EQ(derived->lookup(makeStr("absent")), nullptr);

    derived->decRef();
    base->decRef();
}

} // namespace
} // namespace vm
} // namespace rigor
