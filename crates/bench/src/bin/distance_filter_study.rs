fn main() {
    reis_bench::figures::distance_filter_study().print();
}
